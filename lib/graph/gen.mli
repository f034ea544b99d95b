(** Graph generators for workloads.

    All generators produce connected graphs (unless noted) on nodes
    [0..n-1].  Randomized generators take an explicit {!Symnet_prng.Prng.t}
    so that workloads are reproducible. *)

val path : int -> Graph.t
(** Path [0 - 1 - ... - n-1].  [n >= 1]. *)

val cycle : int -> Graph.t
(** Cycle on [n >= 3] nodes. *)

val complete : int -> Graph.t
(** Complete graph K_n. *)

val star : int -> Graph.t
(** Star K_{1,n-1} with centre 0.  [n >= 2]. *)

val grid : rows:int -> cols:int -> Graph.t
(** [rows * cols] grid; node [(r,c)] is [r * cols + c].  Built through
    {!Graph.of_edges} from two endpoint arrays, with no edge list. *)

val hypercube : dim:int -> Graph.t
(** d-dimensional hypercube on [2^dim] nodes. *)

val complete_binary_tree : depth:int -> Graph.t
(** Complete binary tree with [2^(depth+1) - 1] nodes, root 0. *)

val theta : int -> int -> int -> Graph.t
(** [theta a b c]: two terminals joined by three internally disjoint paths
    with [a], [b], [c] internal nodes.  Every edge lies on a cycle, so the
    graph is bridgeless — the standard stress case for E2. *)

val barbell : int -> Graph.t
(** Two K_n cliques joined by a single bridge edge. *)

val lollipop : clique:int -> tail:int -> Graph.t
(** K_clique with a path of [tail] nodes attached — the classic worst case
    for random-walk hitting times. *)

val petersen : unit -> Graph.t
(** The Petersen graph (10 nodes, 15 edges, bridgeless, non-bipartite). *)

val random_tree : Symnet_prng.Prng.t -> int -> Graph.t
(** Uniform-attachment random tree on [n] nodes. *)

val gnp : Symnet_prng.Prng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi G(n,p).  Possibly disconnected. *)

val random_connected : Symnet_prng.Prng.t -> n:int -> extra_edges:int -> Graph.t
(** Random tree plus [extra_edges] distinct random chords: connected with
    exactly [n - 1 + extra_edges] edges (chords that would duplicate an
    existing edge are redrawn; if the graph saturates, fewer are added). *)

val random_geometric :
  Symnet_prng.Prng.t -> n:int -> radius:float -> Graph.t
(** Sensor-network style: [n] points uniform in the unit square, edges
    between pairs at distance [<= radius].  Possibly disconnected. *)

val random_bipartite :
  Symnet_prng.Prng.t -> left:int -> right:int -> p:float -> Graph.t
(** Random bipartite graph; guaranteed bipartite by construction, made
    connected by a spanning zig-zag. *)

(** {1 Streamed generators}

    Families whose adjacency is computable per node in O(degree), so the
    graph can be built through {!Graph.of_adjacency}: the stream fills
    the endpoint arrays straight from the formula, and no edge list or
    pair arrays are built first.  The multi-million-node sharded runs
    are built this way. *)

type stream = {
  stream_n : int;  (** node count *)
  stream_degree : int -> int;  (** exact neighbour count of a node *)
  stream_iter : int -> (int -> unit) -> unit;
      (** enumerate a node's neighbours (deterministic order) *)
}

val graph_of_stream : stream -> Graph.t
(** Materialise the stream via {!Graph.of_adjacency}. *)

val circulant_stream : n:int -> offsets:int list -> stream
(** Circulant graph C_n(offsets): node [v] adjacent to [v ± o mod n] for
    each offset [o].  Offsets must lie in [1 .. n/2] (an antipodal
    offset [2o = n] yields one neighbour); duplicates are collapsed.
    Connected whenever [1] is among the offsets.  Degree is uniform, the
    adjacency is O(1) per neighbour — the scalable workload for
    multi-million-node sharded runs. *)
