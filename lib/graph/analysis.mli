(** Ground-truth centralized graph analyses.

    These are the oracles the tests and experiments compare the distributed
    algorithms against: the FSSGA bridge finder is checked against Tarjan's
    low-link bridges, the distributed BFS against centralized distances,
    and so on.  All functions ignore dead nodes/edges.

    The kernels walk the graph's CSR arrays ({!Graph.csr}) with flat
    working arrays: breadth-first searches run through one n-cell FIFO,
    and the low-link walk is an iterative Tarjan with int-array frames.
    Besides their result and those arrays they allocate a constant
    number of small blocks per call, nothing per node or neighbour. *)

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
