(** A graph populated with one FSSGA automaton per node (a "network state"
    sigma in the paper's terminology, §3.4), plus the mutation primitives
    the dynamics are built from.

    Hot-path contract: a network owns one reusable {!Symnet_core.View.t}
    scratch cursor per execution slot (slot 0 is the sequential one; a
    parallel round over a [k]-domain pool uses [k] cursors, one per
    domain, so they never race).  {!view_of} fills slot 0 in place by
    iterating the graph's CSR adjacency, so {!activate} and {!sync_step}
    perform zero per-node heap allocation for the view.  The returned
    view is only valid until the next activation — transition functions
    consume it synchronously (the {!Symnet_core.View} interface is
    strict, so this cannot be violated from algorithm code), and callers
    of {!view_of} must observe it before touching the network again.

    Randomness contract for synchronous rounds: a {e probabilistic}
    automaton stepped by {!sync_step} (or its parallel/dirty variants)
    draws from a private per-node stream — a
    {!Symnet_prng.Prng.split_key} (key = node id) of a base stream the
    network forks off its rng at the first probabilistic synchronous
    round — not from the shared stream.  A node's draw sequence is
    therefore a function of (base, node) alone, which is what makes
    {!sync_step_par} bit-identical to {!sync_step} at every domain
    count; the one-off fork advances the shared rng, so successive
    networks built over one rng still see distinct randomness.
    Asynchronous activation ({!activate}, and the rotor/random
    disciplines built on it) keeps drawing from the shared stream: there
    the activation order is the schedule, and sequential semantics are
    the point. *)

module Graph := Symnet_graph.Graph
module Prng := Symnet_prng.Prng

type 'q t

val init : rng:Prng.t -> Graph.t -> 'q Symnet_core.Fssga.t -> 'q t
(** Populate every node with its initial state.  The network keeps (and
    mutates) the given graph; copy it first if you need the original. *)

val graph : 'q t -> Graph.t
val automaton : 'q t -> 'q Symnet_core.Fssga.t
val rng : 'q t -> Prng.t

val recorder : 'q t -> Symnet_obs.Recorder.t
(** The telemetry recorder activations are reported to; defaults to
    {!Symnet_obs.Recorder.null} (hooks short-circuit). *)

val set_recorder : 'q t -> Symnet_obs.Recorder.t -> unit
(** Attach a recorder.  {!Runner.run} does this automatically from its
    [?recorder] argument; attach one directly when driving the network
    with {!activate}/{!sync_step} or a hand-rolled loop. *)

val state : 'q t -> int -> 'q
(** Current state of a node (dead nodes retain their last state). *)

val set_state : 'q t -> int -> 'q -> unit
(** Override a node's state (tests and adversarial setups).  Keeps the
    dirty set honest when tracking is active. *)

val view_of : 'q t -> int -> 'q Symnet_core.View.t
(** The symmetric view of a node's live neighbourhood, filled into the
    network's scratch buffer — allocation-free, but invalidated by the
    next activation or [view_of] call on the same network. *)

val activate : 'q t -> int -> bool
(** Asynchronous activation of one live node (atomic read of self +
    neighbours, as in §3.4's read-all model).  Returns [true] if the state
    changed.  Dead nodes are ignored. *)

val sync_step : 'q t -> bool
(** One synchronous step: all live nodes transition simultaneously from
    the same snapshot.  Returns [true] if any state changed. *)

val sync_step_par : pool:Domain_pool.t -> 'q t -> bool
(** {!sync_step} with the read phase (view fill + transition) sharded
    over the pool's domains — bit-identical outcome at every pool size:
    same states, same change flag, same activation count, and (via the
    per-node streams) the same probabilistic draws.  Commit-phase writes
    are per-node disjoint, so the hot path takes no locks; when a
    recorder is attached the commit phase runs sequentially so the
    telemetry stream is also bit-identical to the sequential engine.
    With a pool of size 1, or on graphs below {!par_cutoff} nodes (where
    pool hand-off costs more than the round), this {e is}
    {!sync_step}. *)

val sync_step_dirty_par : pool:Domain_pool.t -> 'q t -> bool
(** {!sync_step_dirty} sharded the same way: each shard walks only the
    dirty nodes of its chunk.  Same soundness condition as the
    sequential dirty step (deterministic automata only — consult
    {!dirty_step_sound}); bit-identical to {!sync_step_dirty} at every
    pool size.  Subject to the same {!par_cutoff} as
    {!sync_step_par}. *)

val par_cutoff : 'q t -> int
(** Node count below which the parallel entry points take the sequential
    path (default 10_000).  Purely a scheduling decision — both paths
    are bit-identical — so it only affects wall-clock time. *)

val set_par_cutoff : 'q t -> int -> unit
(** Override the cutoff; [0] forces the parallel path at any size
    (micro-benchmarks and tests that must exercise it on tiny graphs).
    @raise Invalid_argument on a negative cutoff. *)

(** {1 Change-driven (dirty-set) stepping}

    A node is {e dirty} when its own state or a neighbour's state changed
    since it last stepped (or a fault touched its neighbourhood).  For a
    {e deterministic} automaton, re-stepping a clean node is a provable
    no-op — same self, same view, same transition — so the dirty variants
    below step only dirty nodes and still produce bit-identical round
    counts, change flags and final states to their naive counterparts.
    They are unsound for probabilistic automata (skipping a node shifts
    the rng draw sequence); {!Scheduler.round} consults
    {!dirty_step_sound} and falls back to naive stepping automatically.

    Tracking begins at the first dirty call (everything starts dirty) and
    is thereafter maintained by every mutation path ([activate],
    [sync_step], [set_state]).  Fault application must be reported via
    {!mark_dirty} / {!mark_dirty_around}; {!Runner.run} does this.

    A dirty round costs its frontier, not n: every mark that raises a
    flag also queues the node on a worklist, and a round takes its
    frontier by draining and sorting that worklist.  Paths that write
    flags wholesale (the first round, {!reconcile_graph}, {!restore},
    parallel quiet commits, the rotor pass) leave the worklist
    incomplete, and the next round rescans the flags instead. *)

val sync_step_dirty : 'q t -> bool
(** {!sync_step}, stepping only dirty nodes. *)

val rotor_step : 'q t -> bool
(** One rotor pass: activate every live node in ascending order
    (list-free equivalent of folding {!activate} over {!live_nodes}). *)

val rotor_step_dirty : 'q t -> bool
(** {!rotor_step}, activating only nodes that are dirty when their turn
    comes — including nodes dirtied earlier in the same pass. *)

val dirty_step_sound : 'q t -> bool
(** Whether dirty stepping is sound for this network's automaton
    ({!Symnet_core.Fssga.is_deterministic}). *)

val dirty_tracking : 'q t -> bool
(** Whether dirty tracking has been initialised (diagnostics). *)

val mark_dirty : 'q t -> int -> unit
(** Mark one node dirty (no-op before tracking starts).  Call for each
    endpoint of a deleted edge. *)

val mark_dirty_around : 'q t -> int -> unit
(** Mark a node and its live neighbours dirty.  Call {e before} deleting
    a node so its neighbourhood is still enumerable. *)

val reconcile_graph : 'q t -> unit
(** If the graph was mutated since the network last accounted for it
    (compared via {!Symnet_graph.Graph.version}), mark {e everything}
    dirty.  The dirty steps call this themselves, so deletions performed
    directly on the graph — outside the runner's fault pipeline — are
    always picked up; the runner calls it before its precise per-fault
    marking.  No-op before tracking starts. *)

val ack_graph_mutations : 'q t -> unit
(** Declare that all graph mutations so far have been accounted for by
    precise {!mark_dirty} / {!mark_dirty_around} calls, suppressing the
    blanket invalidation of {!reconcile_graph}.  Only the fault pipeline
    should call this, after marking and applying its deletions. *)

(** {1 Checkpoint / restore}

    The rollback half of the runner's recovery policy.  A checkpoint is a
    deep copy of everything a replay can observe: states, graph liveness
    (via {!Symnet_graph.Graph.snapshot}), the shared rng, the per-node
    streams, the activation/transition counters and the dirty set.
    Restoring and re-running therefore reproduces the original
    continuation bit for bit — including probabilistic draws — unless the
    caller changes an input (new faults, {!reseed}). *)

type 'q checkpoint

val checkpoint : 'q t -> 'q checkpoint

val restore : 'q t -> 'q checkpoint -> unit
(** Rewind the network to the checkpoint.  Restores into the existing
    state array (hot-path closures keep their captures) and takes fresh
    rng copies, so one checkpoint can be restored any number of times,
    each replaying the identical walk.
    @raise Invalid_argument if the checkpoint is from another network. *)

val reseed : 'q t -> Prng.t -> unit
(** Replace the shared rng and drop the per-node streams (they re-fork
    from the new base at the next probabilistic synchronous round).  A
    recovery policy uses this to escape a pathological random walk —
    after a plain {!restore}, a probabilistic automaton would replay the
    exact draws that led to the failure. *)

(** {1 Aggregate queries} *)

val activations : 'q t -> int
(** Total activations performed so far (n per synchronous step). *)

val transitions : 'q t -> int
(** Total activations that changed a node's state — the per-round delta
    of this counter is the progress signal the runner's watchdog
    monitors. *)

val live_nodes : 'q t -> int list

val count_if : 'q t -> ('q -> bool) -> int
(** Number of live nodes whose state satisfies the predicate. *)

val find_nodes : 'q t -> ('q -> bool) -> int list
(** Live nodes whose state satisfies the predicate. *)

val states : 'q t -> (int * 'q) list
(** Live [(node, state)] pairs, ascending by node. *)

(** {1 Divide-and-conquer digest backends}

    Synchronous stepping for automata whose transition factors through
    an {!Symnet_core.Sm_monoid} summary of the neighbour multiset
    ({!Symnet_core.Sm_digest}).  Instead of rescanning every view each
    round, the network keeps one persistent segment tree of encoded
    neighbour states per node: when a node's state changes, each
    neighbour's tree absorbs the new leaf in O(log deg), so a hub of
    degree [d] pays O(log d) per changed neighbour instead of O(d).

    Both backends are bit-identical — states, change flags, activation
    and transition counts, and probabilistic draws — to running
    {!sync_step} over [Sm_digest.to_fssga prog], at every pool size:
    [`Incr] and [`Tree] differ only in cost.  The cache needs no hooks:
    structural drift (faults, {!restore}) is caught by
    {!Symnet_graph.Graph.version}, state drift ({!set_state},
    corruption, {!restore}) by an encode sweep at the start of each
    step. *)

type 'q digest
(** A network paired with per-node summary trees for one digest
    automaton. *)

val digest_of : 'q t -> 'q Symnet_core.Sm_digest.t -> 'q digest
(** Attach a digest automaton to a network.  Cheap; trees are built
    lazily at the first {!digest_step}.  The network's own automaton is
    untouched — conventionally it is [Sm_digest.to_fssga prog] so that
    plain {!sync_step} rounds on the same network agree. *)

val digest_network : 'q digest -> 'q t
(** The underlying network. *)

val digest_step :
  ?pool:Domain_pool.t -> ?mode:[ `Incr | `Tree ] -> 'q digest -> bool
(** One synchronous round through the summary trees.  [`Incr] (default)
    updates only the leaves whose encode changed; [`Tree] rebuilds
    every tree from scratch each round (the cross-checking baseline).
    [?pool] parallelizes tree {e builds} (rebuilds and the first round)
    with bit-identical results at every domain count; update and query
    phases are sequential.  Brackets its phases with
    [Span.Digest_update] / [Span.Digest_query] and accrues
    {!Symnet_obs.Recorder.digest_ns}.  Returns [true] if any state
    changed. *)

val digest_invalidate : 'q digest -> unit
(** Force a full rebuild at the next {!digest_step} (tests). *)

(** {1 Sharded-runtime internals}

    Raw access for {!Sharded_network}, which owns per-shard copies of
    the state partition and must observe and reuse the flat engine's
    counters, dirty set and per-node rng streams so that sharded rounds
    stay bit-identical to flat ones.  Not for algorithm code: the arrays
    returned are the live internals, not copies. *)

val state_epoch : 'q t -> int
(** A counter bumped on every state write ({!set_state}, {!activate},
    commits, {!restore}).  The sharded runtime latches it after each
    round; a mismatch at the next round means an external write
    happened and its local copies must resynchronise from
    {!raw_states}. *)

val raw_states : 'q t -> 'q array
(** The live state array, indexed by node id (dead nodes retain their
    last state).  Treat as read-only outside commit helpers. *)

val raw_dirty : 'q t -> bool array
(** The live dirty-flag array; [[||]] until tracking starts (call
    {!ensure_dirty_tracking} first when a dirty round is wanted). *)

val raw_node_rngs : 'q t -> Prng.t array
(** The per-node streams, forking them from the shared rng on first use
    — the same fork point {!sync_step} uses, so sharded probabilistic
    rounds draw the identical sequences. *)

val ensure_dirty_tracking : 'q t -> unit
(** Start dirty tracking (everything dirty) if it hasn't started. *)

val take_frontier : 'q t -> int
(** Take a dirty round's frontier: the live dirty nodes, ascending, land
    in [raw_frontier t] at indices [0 .. k-1] (k is returned) with their
    flags cleared; dead dirty nodes stay dirty for a later round.  Drains
    the dirty worklist and radix-sorts it, O(w) per digit for w queued
    nodes, or — when the worklist is invalid or overflowed — rescans the
    flags in O(n) and rebuilds it.  Tracking must have started. *)

val raw_frontier : 'q t -> int array
(** The buffer {!take_frontier} fills. *)

val invalidate_worklist : 'q t -> unit
(** Declare the dirty worklist incomplete, so the next
    {!take_frontier} rescans the flags.  Required before committing
    from several domains at once ({!commit_node_quiet} in parallel):
    their re-marks would race on the worklist, and an invalid worklist
    is never written. *)

val frontier_rescans : 'q t -> int
(** How many frontiers were taken by a full flag rescan rather than
    from the worklist (diagnostics and tests). *)

val commit_node : 'q t -> int -> 'q -> bool
(** Commit one node's next state with full bookkeeping: transition
    counter, dirty re-marking, recorder activation hook, epoch.  This is
    the flat engine's own sequential commit — the sharded runtime calls
    it in ascending node order when a recorder is attached so telemetry
    is byte-identical. *)

val commit_node_quiet : 'q t -> int -> 'q -> bool
(** Commit one node without the recorder hook or the shared transition
    counter (count per shard, then {!add_transitions}).  Safe to call
    concurrently on distinct nodes once {!invalidate_worklist} has run;
    the dirty re-marks then race benignly. *)

val add_activations : 'q t -> int -> unit
(** Add to the activation counter (merged per-shard read counts). *)

val add_transitions : 'q t -> int -> unit
(** Add to the transition counter (merged per-shard commit counts). *)
