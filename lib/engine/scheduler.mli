(** Activation disciplines (§3.4: synchronous and asynchronous models).

    A scheduler decides which nodes activate in each "round".  For the
    asynchronous disciplines a round is a unit of time in the paper's
    sense for {!Random_permutation} and {!Rotor}: every live node
    activates at least once per round, which is the fairness premise of
    the alpha-synchronizer analysis (§4.2).  {!Uniform_singles} performs n
    independent uniform single activations per round and does {e not}
    guarantee fairness within a round — useful as a stress test.
    {!Adversarial} lets tests drive any activation order. *)

type t =
  | Synchronous  (** all nodes step simultaneously *)
  | Rotor  (** fixed ascending order, one full pass per round *)
  | Random_permutation  (** fresh uniform order each round *)
  | Uniform_singles  (** n uniform random single activations per round *)
  | Adversarial of (round:int -> int list)
      (** explicit activation list for each round (dead nodes skipped) *)

val name : t -> string
(** Stable lowercase identifier ("synchronous", "rotor", ...) used in
    telemetry records. *)

val round :
  ?pool:Domain_pool.t ->
  ?dirty:bool ->
  ?sharded:'q Sharded_network.t ->
  t ->
  'q Network.t ->
  round:int ->
  bool
(** Run one round; [true] if any activation changed a state.

    [sharded] is the runtime {!Synchronous} rounds go through
    ({!Sharded_network.step}, bit-identical to {!Network.sync_step} at
    every (shards, domains) combination); it must wrap the same network.
    [pool] parallelises its rounds over a {!Domain_pool}.  Without a
    runtime a {!Synchronous} round is {!Network.sync_step}: [pool] is
    ignored, and an explicit [~dirty:true] raises [Invalid_argument]
    (the round could only be naive).  The asynchronous disciplines are
    defined by their sequential activation order and ignore both
    runtime and pool.

    [dirty] (default [true]) permits the change-driven fast path: for
    {!Synchronous} rounds through a runtime and {!Rotor} rounds of a
    {e deterministic} automaton, only nodes whose closed neighbourhood
    changed since their last step are re-stepped, which is provably
    outcome- and round-count-preserving.  It is ignored — naive stepping
    is used — for probabilistic automata (skipping shifts the rng draw
    sequence) and for the random-order and adversarial disciplines.
    Pass [~dirty:false] to force naive stepping, e.g. when benchmarking
    the per-activation cost itself or differentially testing the fast
    path. *)
