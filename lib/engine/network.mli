(** A graph populated with one FSSGA automaton per node (a "network state"
    sigma in the paper's terminology, §3.4), plus the mutation primitives
    the dynamics are built from.

    Hot-path contract: a network owns one reusable {!Symnet_core.View.t}
    scratch cursor, bound to its state array.  A node's view is filled
    into it in place with the ids of its live neighbours by iterating
    the graph's CSR adjacency, so {!activate} and {!sync_step} perform
    zero per-node heap allocation and no write barrier for the view.  A
    filled view is only valid until the next activation — transition
    functions consume it synchronously (the {!Symnet_core.View}
    interface is strict, so this cannot be violated from algorithm
    code).

    {!sync_step} is the reference synchronous round.  The runner drives
    its synchronous rounds through {!Sharded_network}, whose one-shard
    layout is this engine's dirty-set and commit machinery behind the
    same round, and whose every (shards, domains) combination is
    bit-identical to {!sync_step}.

    Randomness contract for synchronous rounds: a {e probabilistic}
    automaton stepped synchronously draws from a private per-node
    stream — a {!Symnet_prng.Prng.split_key} (key = node id) of a base
    stream the network forks off its rng at the first probabilistic
    synchronous round — not from the shared stream.  A node's draw
    sequence is therefore a function of (base, node) alone, which is
    what makes a round on several domains bit-identical to
    {!sync_step}; the one-off fork advances the shared rng, so
    successive networks built over one rng still see distinct
    randomness.  Asynchronous activation ({!activate}, and the
    rotor/random disciplines built on it) keeps drawing from the shared
    stream: there the activation order is the schedule, and sequential
    semantics are the point.

    Write log: every state write — a commit, {!set_state}, an
    {!activate} that changes the node — moves {!state_epoch} by one and
    is logged against the epoch it moved to, in a ring as long as the
    dirty worklist ([max 64 (n/16)], rounded up to a power of two).
    {!iter_writes} reads it back, and {!refresh_checkpoint} brings a
    checkpoint up to date at the cost of what was written since.  A
    {!restore}, a {!commit_parallel} (its epoch bumps race) or a reader
    further behind than the ring mean that everything may have
    changed. *)

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

val activate : 'q t -> int -> bool
(** Asynchronous activation of one live node (atomic read of self +
    neighbours, as in §3.4's read-all model).  Returns [true] if the state
    changed.  Dead nodes are ignored. *)

val sync_step : 'q t -> bool
(** One synchronous step: all live nodes transition simultaneously from
    the same snapshot.  Returns [true] if any state changed. *)

val par_cutoff : 'q t -> int
(** Round size below which {!Sharded_network.step} runs on the calling
    domain even when given a pool (default 10_000): positions stepped,
    that is owned nodes in a naive round and frontier entries in a dirty
    one.  Purely a scheduling decision — both schedules are
    bit-identical — so it only affects wall-clock time. *)

val set_par_cutoff : 'q t -> int -> unit
(** Override the cutoff; [0] forces the parallel path at any size
    (micro-benchmarks and tests that must exercise it on tiny graphs).
    @raise Invalid_argument on a negative cutoff. *)

(** {1 Change-driven (dirty-set) stepping}

    A node is {e dirty} when its own state or a neighbour's state changed
    since it last stepped (or a fault touched its neighbourhood).  For a
    {e deterministic} automaton, re-stepping a clean node is a provable
    no-op — same self, same view, same transition — so a dirty round
    ({!Sharded_network.step} with [~dirty:true], {!rotor_step_dirty})
    steps only dirty nodes and still produces bit-identical round
    counts, change flags and final states to its naive counterpart.
    Dirty rounds are unsound for probabilistic automata (skipping a node
    shifts the rng draw sequence); {!Scheduler.round} consults
    {!dirty_step_sound} and falls back to naive stepping automatically.

    Tracking begins at the first dirty round (everything starts dirty)
    and is thereafter maintained by every mutation path ([activate],
    commits, [set_state]).  Fault application must be reported via
    {!mark_dirty} / {!mark_dirty_around}; {!Runner.run} does this.

    A dirty round costs its frontier, not n: every mark that raises a
    flag also queues the node on a worklist, and a round takes its
    frontier by draining and sorting that worklist.  Paths that write
    flags wholesale (the first round, {!reconcile_graph}, {!restore},
    {!commit_parallel}, the rotor pass) leave the worklist incomplete,
    and the next round rescans the flags instead. *)

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
    dirty.  Dirty rounds call this themselves, so deletions performed
    directly on the graph — outside the runner's fault pipeline — are
    always picked up; the runner calls it before its precise per-fault
    marking.  No-op before tracking starts. *)

val ack_graph_mutations : 'q t -> unit
(** Declare that all graph mutations so far have been accounted for by
    precise {!mark_dirty} / {!mark_dirty_around} calls, suppressing the
    blanket invalidation of {!reconcile_graph}.  Only callers that mark
    every deletion through {!Fault.mark_before} (the runner's fault
    pipeline, the serve daemon's mutations) should call this, after
    marking and applying them. *)

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
(** Allocate a checkpoint and fill it by a full {!refresh_checkpoint}.
    The dirty set is stored as the ids of its flagged nodes. *)

val refresh_checkpoint : 'q t -> 'q checkpoint -> unit
(** Bring a checkpoint of this network up to date in place, as if it
    had been taken now: states at the nodes {!iter_writes} names since
    it was last refreshed (or all of them when the log cannot tell),
    graph liveness through {!Symnet_graph.Graph.refresh}, rng
    copies, counters, and the flagged ids (read off the dirty worklist
    when it is valid, otherwise by a flag scan).  Allocates the rng
    copies and a constant when the dirty set has not outgrown its
    largest size so far and the automaton is deterministic.
    @raise Invalid_argument if the checkpoint is from another
    network. *)

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

(** {1 Sharded-runtime internals}

    Raw access for {!Sharded_network}, whose shards read and commit
    their owned slices of the flat state array in place and must
    observe and reuse the flat engine's commit buffer, counters, dirty
    set and per-node rng streams so that their rounds stay bit-identical
    to {!sync_step}.  Not for algorithm code: the arrays returned are
    the live internals, not copies. *)

val state_epoch : 'q t -> int
(** A counter bumped on every state write ({!set_state}, {!activate},
    commits, {!restore}).  The sharded runtime latches it after each
    round; a mismatch at the next round means an external write
    happened and its ghosts must resynchronise from {!raw_states}. *)

val iter_writes : 'q t -> since:int -> (int -> unit) -> bool
(** [iter_writes t ~since f] calls [f v] for each state write at an
    epoch in [(since, state_epoch t]], oldest first ([v] may repeat),
    and returns [true]; or returns [false], calling nothing, when the
    write log does not reach back to [since]. *)

val raw_states : 'q t -> 'q array
(** The live state array, indexed by node id (dead nodes retain their
    last state).  The same array for the network's whole life, so a
    shard may keep it.  Treat as read-only outside commit helpers. *)

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
    the dirty worklist and sorts it through a two-level bitmap
    ({!Id_sort}), O(w + n/1024) for w queued nodes, or — when the
    worklist is invalid or overflowed — rescans the flags in O(n) and
    rebuilds it.  Tracking must have started. *)

val raw_frontier : 'q t -> int array
(** The buffer {!take_frontier} fills. *)

val raw_next : 'q t -> 'q array
(** The commit buffer a synchronous round's read phase fills, indexed
    by node id; allocated (n cells) at its first use, then the same
    array for the network's life. *)

val frontier_rescans : 'q t -> int
(** How many frontiers were taken by a full flag rescan rather than
    from the worklist (diagnostics and tests). *)

val commit_node : 'q t -> int -> 'q -> bool
(** Commit one node's next state: on a change, write it, move the epoch
    and the write log and re-mark the node's closed neighbourhood dirty;
    then feed the recorder's activation hook.  Returns whether the state
    changed; the transition counter is left to the caller
    ({!add_transitions}). *)

val commit_parallel :
  'q t -> Domain_pool.t -> n:int -> (int -> int -> int -> unit) -> unit
(** [commit_parallel t pool ~n f] runs [f] over [[0, n)] on the pool
    ({!Domain_pool.run}) as commits from several domains at once, each
    calling {!commit_node} on its own nodes with no recorder attached.
    Their re-marks would race on the dirty worklist, so it is declared
    incomplete first (the next {!take_frontier} rescans the flags);
    their epoch bumps race on the write log, so when they moved the
    epoch it restarts at the epoch they leave. *)

val add_activations : 'q t -> int -> unit
(** Add to the activation counter (merged per-shard read counts). *)

val add_transitions : 'q t -> int -> unit
(** Add to the transition counter (merged per-shard commit counts). *)
