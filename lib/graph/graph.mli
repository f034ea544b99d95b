(** Fault-aware undirected graphs.

    This is the network substrate for the whole library.  Nodes are dense
    integers [0 .. original_size - 1]; edges carry stable integer ids so
    that per-edge algorithm state (e.g. the bridge counters of §2.1)
    survives unrelated mutations.  The paper's fault model is {e decreasing
    benign}: nodes and edges may be deleted but never added, so the
    structure supports deletion only — [remove_node] and [remove_edge] mark
    entities dead without renumbering the survivors.

    Adjacency is stored as CSR (compressed sparse row): flat offset /
    target / edge-id [int array]s built once, by one construction path
    behind {!create}, {!of_edges} and {!of_adjacency}, with liveness bits
    filtered on iteration.  [iter_neighbours] and [fold_neighbours]
    are therefore allocation-free and cache-friendly — they are the
    engine's per-activation hot path; the list-returning accessors
    ([neighbours], [incident], [nodes], [edges]) are compatibility shims
    that materialise fresh lists on each call.  Edge endpoints are two
    [int array]s: each accessor that returns an {!edge} record builds
    it on demand.  Live degrees are cached and maintained incrementally
    by the deletion primitives, making [degree] and [max_degree] O(1)
    and O(n), and so is the number of cleared edge bits
    ({!cleared_edges}).

    Every flip of a liveness bit is logged against the {!version} it
    moved the graph to, in a ring of [max 64 (n/16)] entries rounded up
    to a power of two.  {!iter_flips} reads it back, and {!refresh}
    brings a copy up to date at the cost of what flipped. *)

type t

type edge = { id : int; u : int; v : int }
(** An undirected edge; [u < v] canonically.  The orientation used by
    agent counters (§2.1) is "from [u] towards [v]". *)

(** {1 Construction} *)

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph on nodes [0..n-1].  Self-loops are
    rejected; duplicate edges (in either orientation) are collapsed, and
    edge ids number the first occurrences in list order.  O(n + length
    edges) time, with no hashing: the list is copied into two endpoint
    arrays, repeats are found by a counting sort on the lower endpoint,
    and the CSR is filled from the arrays.  A grid's list costs about
    11 words per edge beyond the list itself, all allocation counted.
    @raise Invalid_argument on a bad endpoint or a self-loop (the first
    in list order), or a negative [n]. *)

val of_edges : n:int -> int array -> int array -> t
(** [of_edges ~n us vs] is [create ~n ~edges] over the pairs
    [(us.(i), vs.(i))] in index order, without the list: same ids, rows
    and rejections, with ["Graph.of_edges"] in the messages.  The arrays
    are read, not kept.
    @raise Invalid_argument also if the arrays differ in length. *)

val copy : t -> t
(** Deep copy of the liveness (bits, cached degrees and counts) at the
    same {!version}; the immutable CSR is shared.  The copy's own flip
    log starts empty. *)

val of_adjacency : n:int -> degree:(int -> int) -> iter:(int -> (int -> unit) -> unit) -> t
(** Streamed construction from a degree oracle and a per-node neighbour
    stream ([iter v f] calls [f] once per neighbour of [v]), for
    families whose adjacency is a formula: no edge list or pair arrays
    are built by the caller, and the stream fills the endpoint arrays
    the CSR is built from directly.  The stream must describe a simple
    symmetric adjacency: [degree v] must equal the number of neighbours
    [iter v] emits, and [w] must appear in [v]'s stream iff [v] appears
    in [w]'s.  Violations (asymmetry, duplicates, self-loops, bad ids)
    raise [Invalid_argument].  The resulting graph is indistinguishable
    from a {!create} over the same edge set: rows ascend by edge id, and
    edge [id]s ascend with the first (lower-endpoint) visit order. *)

(** {1 Queries} *)

val original_size : t -> int
(** Number of nodes the graph was created with, dead or alive. *)

val node_count : t -> int
(** Number of live nodes. *)

val edge_count : t -> int
(** Number of live edges (both endpoints live). *)

val is_live_node : t -> int -> bool
val is_live_edge : t -> int -> bool

val edge : t -> int -> edge
(** Edge by id (live or dead), a fresh record.
    @raise Invalid_argument on a bad id. *)

val edge_between : t -> int -> int -> edge option
(** The live edge joining two live nodes, if any.  Scans the first
    node's row and builds only the record it returns. *)

val mem_edge : t -> int -> int -> bool

val degree : t -> int -> int
(** Live degree of a live node (0 for a dead node).  O(1): read from the
    incrementally maintained degree cache. *)

val max_degree : t -> int
(** Largest live degree; one pass over the cached degree array. *)

val version : t -> int
(** Mutation counter, {e strictly monotonic}: incremented by every
    mutation that flips a liveness bit ({!remove_node}, {!remove_edge},
    {!revive_node}) and by every {!restore} — it never moves backwards
    and never reuses a value, so two observations of an equal version
    are guaranteed to have seen identical liveness.  This is the
    collision-freedom contract that version-keyed caches (the engine's
    dirty-set reconciler, the incremental digest cache, the serve query
    cache) rely on; equal version + equal {!Symnet_engine} state epoch
    means a cached answer is still exact. *)

val cleared_edges : t -> int
(** Edge bits cleared by {!remove_edge}, counted as they flip: O(1).
    Zero iff every edge bit is set, whatever the nodes. *)

val iter_flips :
  t -> since:int -> node:(int -> unit) -> edge:(int -> unit) -> bool
(** [iter_flips g ~since ~node ~edge] calls [node v] for each node and
    [edge e] for each edge whose liveness bit flipped at a version in
    [(since, version g]], oldest first (an id may repeat), and returns
    [true]; or returns [false], calling nothing, when the log does not
    reach back to [since]: a {!restore} since then, more flips than the
    log holds, or a [since] this graph never had. *)

val nodes : t -> int list
(** Live nodes, ascending. *)

val nth_live_node : t -> int -> int
(** [nth_live_node g k] is the [k]-th live node in ascending id order
    ([k] from 0), i.e. [List.nth (nodes g) k], in O(log n).  Backed by
    a Fenwick tree over node liveness that the first call builds (O(n))
    and that {!remove_node} / {!revive_node} then update in O(log n);
    {!restore} drops it and {!copy} does not carry it, so neither pays
    for it.
    @raise Invalid_argument unless [0 <= k < node_count g]. *)

val edges : t -> edge list
(** Live edges, ascending by id. *)

val neighbours : t -> int -> int list
(** Live neighbours of a node.  Dead nodes have no neighbours. *)

val iter_nodes : t -> (int -> unit) -> unit

val iter_edges : t -> (edge -> unit) -> unit
(** Live edges ascending by id, as {!edges} lists them, without the
    list: each edge's liveness is read when the iteration reaches it. *)

val iter_neighbours : t -> int -> (int -> unit) -> unit
(** Allocation-free iteration over the live neighbours of a node, in the
    same (ascending edge id) order as {!neighbours}.  Dead nodes iterate
    nothing. *)

val fold_neighbours : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val incident : t -> int -> edge list
(** Live incident edges of a node. *)

(** {1 Faults} *)

val remove_edge : t -> int -> unit
(** Kill an edge by id (idempotent).  Bumps {!version} iff the edge's
    liveness bit actually flips — including when an endpoint is
    currently dead, because clearing the bit changes what a later
    {!revive_node} brings back. *)

val remove_edge_between : t -> int -> int -> unit
(** Kill the live edge between two nodes if it exists. *)

val remove_node : t -> int -> unit
(** Kill a node; its incident edges die with it (idempotent). *)

val revive_node : t -> int -> unit
(** Bring a dead node back (idempotent on live nodes).  Incident edges
    whose own liveness bit was never cleared — i.e. that died only
    because an endpoint crashed, not via {!remove_edge} — come back with
    it, provided the other endpoint is alive.  This is the crash–restart
    mechanism of the chaos engine: an engine-level extension beyond the
    paper's decreasing-fault model (§2), in the spirit of its
    self-stabilization discussion (§5.2).  Bumps {!version}. *)

(** {1 Checkpointing} *)

type snapshot = t
(** Liveness checkpoint: a {!copy}, so node/edge liveness bits, cached
    degrees and live counts, with the immutable CSR arrays shared; it is
    brought up to date by {!refresh}. *)

val snapshot : t -> snapshot
(** {!copy}. *)

val restore : t -> snapshot -> unit
(** Rewind the graph's liveness to a snapshot taken from the same graph.
    {!version} is {e bumped}, never rewound: a rollback-then-diverge run
    must not re-reach a previously seen version with different liveness,
    or version-keyed caches would serve stale data (the rewind-collision
    bug).  Clients keying on the version therefore see every restore as
    a fresh mutation and re-sync; the flip log restarts at the new
    version.
    @raise Invalid_argument if the snapshot's dimensions don't match. *)

val refresh : t -> from:t -> unit
(** [refresh c ~from:g] brings [c] — a {!copy} of [g] left unmutated
    since, or last refreshed from [g] — to [g]'s liveness and version:
    O(1) if the version did not move, otherwise O(flipped nodes' rows +
    flipped edges) from [g]'s flip log, or an O(n + m) blit when the
    log does not reach back to [c]'s version.  Allocates a constant.
    @raise Invalid_argument if [c] does not share [g]'s rows. *)

(** {1 Raw CSR access}

    For engine internals (the sharded runtime) that need to iterate
    adjacency slots without closure dispatch.  The arrays are the live
    internals — structurally immutable for the graph's lifetime, with
    only the liveness bits mutating (and only between rounds, via the
    fault primitives) — and must be treated as read-only. *)

type csr = {
  csr_off : int array;  (** n+1 row offsets *)
  csr_tgt : int array;  (** neighbour node per slot *)
  csr_eid : int array;  (** edge id per slot *)
  csr_node_alive : bool array;
  csr_edge_alive : bool array;
}

val csr : t -> csr
(** The graph's CSR arrays, shared (not copied).  Slot [i] of node [v]
    (for [i] in [csr_off.(v) .. csr_off.(v+1) - 1]) is live iff
    [csr_edge_alive.(csr_eid.(i)) && csr_node_alive.(csr_tgt.(i))] —
    the same filter {!iter_neighbours} applies. *)
