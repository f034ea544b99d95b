(** Fault actions and schedules.

    The paper's base model is {e decreasing benign} faults (§1–2): nodes
    and edges deleted during a run, never added.  [Kill_node] and
    [Kill_edge] are exactly that.  Two further actions extend the model
    towards the paper's self-stabilization discussion (§5.2):
    [Corrupt_state] replaces one node's state with an adversarial value
    (a transient fault), and [Crash_restart] crashes a node and revives
    it in its start state after a downtime window — the classic
    crash–recover process model.  A schedule maps round numbers to
    actions; the runner applies the actions due at the start of each
    round, before any activation. *)

type action =
  | Kill_node of int
  | Kill_edge of int * int  (** by endpoints; ignored if already gone *)
  | Corrupt_state of int
      (** overwrite the node's state with an adversarial value (§5.2);
          how the value is chosen belongs to the applier *)
  | Crash_restart of { node : int; downtime : int }
      (** kill the node now; revive it in its start state [downtime]
          rounds later ([downtime = 0] revives before the next round) *)

type event = { at_round : int; action : action }

type schedule = event list

val apply_one :
  apply_state:(int -> bool) -> Symnet_graph.Graph.t -> action -> bool
(** Apply one action now and report whether it had an effect, as
    {!apply_due} does for each due event. *)

val mark_before : 'q Network.t -> action -> unit
(** Mark dirty the nodes whose views [action] is about to change behind
    the network's back: a killed or crashed node and its live
    neighbours, both ends of a killed edge; nothing for
    [Corrupt_state], since {!Network.set_state} marks.  Call it before
    the action lands, while the neighbourhood is still enumerable, and
    {!Network.ack_graph_mutations} once every graph edit is marked.  The
    runner and the serve daemon both mark through it.  No-op before
    dirty tracking starts. *)

val apply_due :
  ?on_apply:(action -> effective:bool -> unit) ->
  ?apply_state:(int -> bool) ->
  schedule ->
  round:int ->
  Symnet_graph.Graph.t ->
  schedule
(** Apply every event with [at_round <= round]; returns the events still
    pending.  [on_apply] observes each action right after it lands, with
    [effective = false] when it was a no-op (dead node, missing edge) —
    the runner counts these as [faults_noop] and warns.  [apply_state]
    performs [Corrupt_state] on the caller's state store and reports
    whether it landed; it defaults to doing nothing and reporting
    [false], so graph-only callers silently skip state faults.  The
    revival half of [Crash_restart] is {e not} performed here — only the
    crash is; the runner owns the round clock and the start states. *)

val random_edge_faults :
  Symnet_prng.Prng.t ->
  Symnet_graph.Graph.t ->
  count:int ->
  max_round:int ->
  keep_connected:bool ->
  schedule
(** [count] random distinct edge deletions at uniform random rounds in
    [1..max_round].  With [keep_connected], only edges whose removal keeps
    the current live graph connected are chosen (deletions are simulated
    on a scratch copy in schedule order), so the schedule is guaranteed
    benign for connectivity; fewer than [count] events may result. *)

val random_node_faults :
  Symnet_prng.Prng.t ->
  Symnet_graph.Graph.t ->
  count:int ->
  max_round:int ->
  forbidden:int list ->
  keep_connected:bool ->
  schedule
(** Random node deletions avoiding [forbidden] nodes (e.g. the critical
    nodes of a 1-sensitive algorithm).  [keep_connected] as above. *)
