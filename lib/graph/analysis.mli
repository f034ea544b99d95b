(** Ground-truth centralized graph analyses.

    These are the oracles the tests and experiments compare the distributed
    algorithms against: the FSSGA bridge finder is checked against Tarjan's
    low-link bridges, the distributed BFS against centralized distances,
    and so on.  All functions ignore dead nodes/edges.

    The breadth-first family ([distances], the component functions,
    [is_connected], [eccentricity], [diameter], [two_colouring]) runs
    over a {!freeze}d adjacency, so no search tests liveness per
    neighbour; each of these functions freezes the graph once per call.
    When an edge bit is off the frozen rows hold only the live edges
    between live nodes.  Otherwise they are the graph's own rows, and
    each search first marks the dead nodes settled in its working array
    (putting the documented value back in a returned array).
    Breadth-first searches run through one n-cell FIFO.  The low-link
    functions ([bridges], [articulation_points],
    [spanning_tree_edges]) need edge ids and walk the graph's CSR arrays
    ({!Graph.csr}) with an iterative Tarjan over int-array frames.
    Besides their result, the frozen adjacency and their working arrays,
    the functions allocate a constant number of small blocks per call,
    nothing per node or neighbour.

    Distance queries against many targets of one unchanging graph can
    also run as landmark-guided A* searches ({!guided_distances}), with
    lower bounds built once from the graph's structure. *)

val component_labels : Graph.t -> int array * int
(** [(labels, k)]: every live node's component index in [0 .. k - 1],
    components numbered in the order of their smallest member; dead
    nodes get [-1].  [k] is the number of components. *)

val components : Graph.t -> int list list
(** Connected components of the live graph, each sorted ascending;
    components ordered by their smallest node. *)

val component_of : Graph.t -> int -> int list
(** Live nodes reachable from a live node (including itself), sorted. *)

val is_connected : Graph.t -> bool
(** True iff the live graph is connected (vacuously true when empty). *)

val distances : Graph.t -> sources:int list -> int array
(** Multi-source BFS distance to the nearest source, indexed by node id;
    [max_int] for unreachable or dead nodes. *)

val eccentricity : Graph.t -> int -> int
(** Greatest distance from a node to any node in its component. *)

val diameter : Graph.t -> int
(** Maximum eccentricity over live nodes of a connected graph.
    @raise Invalid_argument if the live graph is disconnected or empty. *)

val two_colouring : Graph.t -> int array option
(** [Some colours] with entries in {0,1} if the live graph is bipartite
    (dead nodes get colour 0), [None] otherwise. *)

val is_bipartite : Graph.t -> bool

val bridges : Graph.t -> int list
(** Ids of bridge edges of the live graph (Tarjan low-link), sorted. *)

type dfs
(** The low-link walk's working arrays for one graph's rows: five n-cell
    int arrays and an edge and a node mark per entity. *)

val dfs : Graph.t -> dfs

val bridges_in : dfs -> Graph.t -> int list
(** {!bridges} through caller-kept working arrays, built by {!dfs} from
    [g] or a copy of it: allocates only the returned list and a
    constant.
    @raise Invalid_argument if the arrays do not fit [g]. *)

val articulation_points : Graph.t -> int list
(** Cut vertices of the live graph, sorted. *)

val spanning_tree_edges : Graph.t -> int list
(** Edge ids of a DFS spanning forest of the live graph. *)

(** {1 Frozen adjacency}

    For callers that ask many questions of one unchanging graph (a
    serve view): freeze once, then search without liveness tests and,
    through a {!scratch}, without allocating per search. *)

type adjacency
(** A graph's live adjacency at the time of {!freeze}: for each node
    the live edges' other ends, in CSR slot order (ascending edge id),
    and which nodes are live.  Later mutations of the graph do not show
    through. *)

val freeze : Graph.t -> adjacency
(** O(n + m) when an edge bit is off ({!Graph.cleared_edges} > 0): the
    live slots are copied out, so a dead node's row is empty.  Otherwise
    the adjacency shares the graph's own row offsets and targets, which
    never change after {!Graph.create}, and costs an n-byte liveness
    copy and an array of the dead ids, whose slots those rows still
    list: the kernels above mark them settled before they search. *)

val relabel : adjacency -> labels:int array -> queue:int array -> int
(** {!component_labels} of the frozen graph, into caller-kept arrays of
    at least n cells:
    [labels] receives the labels, [queue] is working space; returns the
    component count.  Allocates nothing.
    @raise Invalid_argument if an array is shorter than n. *)

type scratch
(** Working arrays for {!target_distances} and {!guided_distances}: n
    distance cells, n queue cells, n marks and the guided search's
    buckets, which grow as needed.  Idle between searches: every
    distance cell unset but at the graph's dead nodes, which hold a
    sentinel for the scratch's whole life, no mark, empty buckets. *)

val scratch : Graph.t -> scratch
(** An idle scratch for the graph's liveness, which must not change
    while the scratch is in use (a serve view's graph copy). *)

val refresh_scratch : scratch -> Graph.t -> int -> unit
(** [refresh_scratch sc g v] re-marks node [v]'s sentinel from [g]'s
    liveness, after [v]'s bit flipped in [g] (a {!Graph.refresh}ed
    copy): the scratch is then one for [g]'s new liveness once every
    flipped node is re-marked.  The scratch must be idle. *)

val target_distances :
  adjacency -> scratch -> sources:int list -> targets:int list -> int list
(** The multi-source BFS distance of each target, in the order given
    ([max_int] for an unreachable, dead or out-of-range target), equal
    to {!distances} read at the targets.  The adjacency and the scratch
    must come from one graph.  The search stops once every live target
    is settled and then resets only the cells it wrote, leaving the
    scratch idle; a search that raises leaves it dirty, so the caller
    must drop it.  Allocates the returned list and a constant number of
    small blocks. *)

(** {1 Landmark lower bounds}

    A graph's {e structure} is its rows as {!Graph.create} built them,
    every liveness bit ignored.  Deaths only delete nodes and edges, so
    every live graph is a subgraph of the structure and its distances
    are at least the structure's: a bound built once from the structure
    holds for the graph and every copy of it, after any kill, revival
    or restore. *)

type landmarks
(** The structure's BFS distances from 4 landmarks chosen by
    farthest-point selection (the first is the smallest id with a
    neighbour; each next one the node with a neighbour farthest from
    those chosen, ties to the larger sum of distances, then the smaller
    id), 2 bytes per node and landmark.  Distances above 65534 are
    clamped, which keeps the bounds valid.  Immutable: one table serves
    every copy of the graph. *)

val landmarks : Graph.t -> landmarks
(** Four breadth-first searches of the structure; allocates the 8n-byte
    table and one n-cell queue. *)

val lower_bound : landmarks -> int -> int -> int
(** [lower_bound lm u v] is [max_j |L_j(u) - L_j(v)|] over the
    landmarks [j] that reach both nodes in the structure: at most their
    live distance in the graph and every copy of it, and consistent
    (it moves by at most 1 across an edge).  On an intact grid it is
    the Manhattan distance. *)

val guided_distances :
  landmarks ->
  Graph.t ->
  scratch ->
  sources:int list ->
  targets:int list ->
  int list option
(** [Some] of {!target_distances}'s answer, from one A* search per live
    target guided by {!lower_bound}, walking the graph's CSR with its
    liveness tests; or [None], the scratch idle, when a breadth-first
    search should answer instead: when the targets' budgets (64 × (LB +
    1) settled nodes each, LB the least bound from a source, plus one
    bound per source) sum past the live node count, or when a search
    overruns its budget.  Only the input decides: the bounds and the
    searches' progress.  The scratch must come from [g].  Allocates the
    returned list and a constant number of small blocks, once the
    scratch's buckets have grown.
    @raise Invalid_argument if the landmarks were built from another
    graph's rows (copies share them). *)

val budget : int
(** The budget factor of {!guided_distances}, 64: a constant, measured
    (DESIGN.md §11). *)

val guided_search :
  landmarks ->
  Graph.t ->
  scratch ->
  sources:int list ->
  budget:int ->
  int ->
  int option
(** [guided_search lm g sc ~sources ~budget t]: the A* search
    {!guided_distances} runs for one target, with the budget factor
    given ([max_int]: none).  [Some] of the distance ([max_int] for an
    unreachable, dead or out-of-range target), or [None] if the search
    would settle more than [budget × (LB + 1)] nodes.  Leaves the
    scratch idle either way.
    @raise Invalid_argument if [budget < 1] or the landmarks were built
    from another graph. *)

val last_settled : scratch -> int
(** Nodes the scratch's last {!guided_search} (or the last target of
    {!guided_distances}) settled, the one that overran included. *)
