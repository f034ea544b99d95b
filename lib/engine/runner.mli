(** Running a network to quiescence, to a stopping condition, or for a
    bounded number of rounds — with fault injection (scheduled and
    stochastic), crash–restart revival, checkpoint/rollback recovery and
    telemetry. *)

type outcome = {
  rounds : int;  (** the round the run ended on (replays revisit rounds) *)
  activations : int;  (** total node activations *)
  transitions : int;  (** activations that changed a state *)
  quiesced : bool;
      (** the run ended because a round produced no state change (only
          meaningful for deterministic automata) *)
  stopped : bool;  (** the run ended because [stop] returned true *)
  gave_up : bool;
      (** the watchdog tripped and the recovery policy was exhausted *)
  faults_applied : int;
      (** effective fault applications, replays after rollback included *)
  faults_noop : int;
      (** scheduled faults that were no-ops (dead node, missing edge) —
          a non-zero value flags a misconfigured schedule *)
  recoveries : int;  (** recovery-policy steps taken (give-ups included) *)
  metrics : Symnet_obs.Metrics.snapshot option;
      (** snapshot of the run's metrics when a recorder was supplied;
          [None] otherwise *)
}

(** {1 Recovery}

    A progress watchdog monitors the per-round transition count.  A
    healthy run trends towards 0 (quiescence); a livelocked or diverging
    one keeps transitioning without setting new minima.  After
    [patience] rounds without a new minimum (while still changing), the
    policy fires. *)

type policy =
  | Retry of { attempts : int; reseed : bool }
      (** roll back to the last checkpoint, at most [attempts] times;
          with [reseed], replace the network's rng first — without it a
          deterministic replay would reproduce the failure verbatim *)
  | Degrade  (** switch change-driven stepping off and continue *)
  | Degrade_links
      (** quarantine every link-layer channel still holding traffic
          (taking it out of the fault pipeline's hands), resync ghosts
          from the flat authority, and continue; a second trip with
          nothing left to quarantine gives up.  Requires the sharded
          runtime with a configured {!Link} — degrades to [Give_up]
          otherwise. *)
  | Give_up  (** end the run immediately with [gave_up = true] *)

type recovery = private {
  policy : policy;
  patience : int;
  checkpoint_every : int;
}

val recovery : ?patience:int -> ?checkpoint_every:int -> policy -> recovery
(** [patience] (default 50) is the watchdog window; [checkpoint_every]
    (default 25) the snapshot cadence — checkpoints are only taken on
    rounds that made progress, so a rollback never lands on a state the
    watchdog already distrusted.  A checkpoint of the initial state is
    always taken.  @raise Invalid_argument on non-positive values. *)

(** {1 Resumable sessions}

    The engine of {!run}, exposed one round at a time.  A session owns
    the full run state — fault schedule tail, pending crash-restarts,
    watchdog counters, recovery checkpoints — so that a caller (the
    {!Symnet_serve} daemon) can interleave round execution with other
    work on one core.  Each {!step} performs exactly what one iteration
    of {!run}'s loop would: revive/fault/schedule/hook for one round,
    plus any watchdog or recovery action that round triggers.  Driving a
    session to completion with {!finish} is bit-identical to {!run} —
    same recorder event stream, same rng draws, same outcome. *)

type 'q session

val start :
  ?scheduler:Scheduler.t ->
  ?dirty:bool ->
  ?faults:Fault.schedule ->
  ?chaos:Chaos.t ->
  ?corrupt:(Symnet_prng.Prng.t -> 'q Network.t -> int -> 'q) ->
  ?recovery:recovery ->
  ?max_rounds:int ->
  ?recorder:Symnet_obs.Recorder.t ->
  ?pool:Domain_pool.t ->
  ?shards:int ->
  ?stop:(round:int -> 'q Network.t -> bool) ->
  ?on_round:(round:int -> 'q Network.t -> unit) ->
  'q Network.t ->
  'q session
(** Arm a run without executing any rounds (the [run_start] recorder
    event and the initial recovery checkpoint are emitted here).
    Parameters mean exactly what they do on {!run}; the only omission is
    [domains] — a session cannot scope a pool to its own lifetime, so
    multi-domain stepping needs a caller-managed [pool]
    ({!Domain_pool.with_pool}) that outlives the session. *)

val step : 'q session -> outcome option
(** Execute one round; [Some outcome] once the run has ended (budget,
    quiescence, stop predicate, or the recovery policy giving up), after
    which further calls return the same outcome without executing
    anything. *)

val finish : 'q session -> outcome
(** Drive the session to completion ({!step} until it yields). *)

val session_net : 'q session -> 'q Network.t

val session_runtime : 'q session -> 'q Sharded_network.t
(** The runtime the session's synchronous rounds go through (see
    {!run}'s [shards]): its partition and link runtime, for diagnostics
    and tests. *)

val session_round : 'q session -> int
(** The round the next {!step} will execute (1-based; after a rollback
    it rewinds to just past the restored checkpoint). *)

val session_result : 'q session -> outcome option
(** [Some] iff the run has ended; never re-executes anything. *)

val run :
  ?scheduler:Scheduler.t ->
  ?dirty:bool ->
  ?faults:Fault.schedule ->
  ?chaos:Chaos.t ->
  ?corrupt:(Symnet_prng.Prng.t -> 'q Network.t -> int -> 'q) ->
  ?recovery:recovery ->
  ?max_rounds:int ->
  ?recorder:Symnet_obs.Recorder.t ->
  ?pool:Domain_pool.t ->
  ?domains:int ->
  ?shards:int ->
  ?stop:(round:int -> 'q Network.t -> bool) ->
  ?on_round:(round:int -> 'q Network.t -> unit) ->
  'q Network.t ->
  outcome
(** Executes rounds [1, 2, ...].  Per round: revive nodes whose crash
    downtime elapsed, derive the [chaos] actions due this round, apply
    all due faults (marking the dirty set precisely first), run the
    scheduler, call [on_round], then test [stop].  Defaults: synchronous
    scheduler, no faults, no chaos, no recovery, [max_rounds = 100_000],
    no stop condition.

    [faults] and [chaos] compose: the schedule contributes fixed events,
    the chaos processes contribute stochastic ones each round.
    [Fault.Corrupt_state] actions rewrite the victim's state with
    [corrupt] (default: the automaton's initial state), fed a private
    rng keyed by (round, node) off the chaos seed — deterministic at
    every domain count and stable across rollbacks.
    [Fault.Crash_restart] kills the node now and revives it — start
    state, surviving incident edges — after its downtime.

    Quiescence only ends the run when nothing can wake the network up
    again: no pending schedule events, no pending revivals, and the
    chaos horizon (if any) passed.

    [recovery] arms the watchdog; see {!policy}.  After a rollback the
    round counter rewinds to the checkpoint round, so the trace shows
    revisited rounds, and replayed fault applications re-count.

    [dirty] (default [true]) is forwarded to {!Scheduler.round}: it
    permits change-driven stepping where sound (deterministic automata
    under [Synchronous]/[Rotor]) and is otherwise ignored; the runner
    keeps the dirty set consistent across fault applications, revivals
    and rollbacks.

    Every {!Scheduler.Synchronous} round goes through one runtime
    ({!Sharded_network}), created when the run starts, in O(1) for one
    shard.  Its shard count is [shards] when given, otherwise 1: the
    flat engine, whose rounds a pool cuts into equal slices (see
    {!Sharded_network.step}).  Results are bit-identical at every
    (shards, domains) combination — chaos, checkpointing and recovery
    included — because all fault derivation and application happens
    sequentially at round boundaries (see {!Chaos}).

    [domains] (default 1) runs the synchronous rounds over that many
    domains; [0] means {!Domain_pool.recommended}.  A fresh pool is
    created for the run and shut down afterwards; callers executing
    many runs should instead pass a long-lived [pool] (which takes
    precedence over [domains]).  Asynchronous schedulers ignore both.

    [shards] (>= 1) cuts the graph into that many contiguous,
    equal-width shards, fixed for the run, communicating through
    explicit message queues, with the read/commit/exchange phases
    parallelised over [pool]/[domains].  When the [chaos] spec carries
    a [link=] channel-fault model ({!Chaos.link}) and [shards] is given,
    it is installed on the runtime here
    ({!Sharded_network.configure_link}); other runs ignore it.  A linked
    session that ends — quiescence, budget, stop or give-up — first runs
    the marking ghost pass ({!Sharded_network.resync}), so the readers
    of a ghost whose update was still in flight are left dirty for the
    next session on the network.
    @raise Invalid_argument when [shards] is combined with an
    asynchronous scheduler.

    [recorder] (default {!Symnet_obs.Recorder.null}, which
    short-circuits every hook) is attached to the network for the
    duration of the run and fed the full event stream: run/round
    boundaries, per-activation records, faults (effective and no-op),
    restarts, checkpoints, recovery steps, and the final outcome.  The
    resulting metrics snapshot is embedded in the returned outcome. *)
