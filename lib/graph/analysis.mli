(** Ground-truth centralized graph analyses.

    These are the oracles the tests and experiments compare the distributed
    algorithms against: the FSSGA bridge finder is checked against Tarjan's
    low-link bridges, the distributed BFS against centralized distances,
    and so on.  All functions ignore dead nodes/edges.

    The breadth-first family ([distances], the component functions,
    [is_connected], [eccentricity], [diameter], [two_colouring]) runs
    over a {!freeze}d adjacency that holds only the live edges between
    live nodes, so no search tests liveness per neighbour; each of these
    functions freezes the graph once per call.  Breadth-first searches
    run through one n-cell FIFO.  The low-link functions ([bridges],
    [articulation_points], [spanning_tree_edges]) need edge ids and walk
    the graph's CSR arrays ({!Graph.csr}) with an iterative Tarjan over
    int-array frames.  Besides their result, the frozen adjacency and
    their working arrays, the functions allocate a constant number of
    small blocks per call, nothing per node or neighbour. *)

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
    empty for a dead node; and which nodes are live.  Later mutations
    of the graph do not show through. *)

val freeze : Graph.t -> adjacency
(** O(n + m) when something is dead.  A graph with every node and edge
    live shares its own row offsets and targets, which never change
    after {!Graph.create}, and costs one n-byte liveness copy. *)

val frozen_labels : adjacency -> int array * int
(** {!component_labels} of the frozen graph. *)

type scratch
(** Working arrays for {!target_distances}: n distance cells, an n-cell
    queue and n target marks.  Idle between searches: every cell unset,
    no mark. *)

val scratch : adjacency -> scratch
(** An idle scratch sized for the adjacency's graph. *)

val target_distances :
  adjacency -> scratch -> sources:int list -> targets:int list -> int list
(** The multi-source BFS distance of each target, in the order given
    ([max_int] for an unreachable, dead or out-of-range target), equal
    to {!distances} read at the targets.  The search stops once every
    live target is settled and then resets only the cells it wrote,
    leaving the scratch idle; a search that raises leaves it dirty, so
    the caller must drop it.  Allocates the returned list and a
    constant number of small blocks. *)
