(** Semi-lattice (infimum) functions (paper §5, citing Nath et al. [16]
    and Tel [23, §6.1.5]).

    A semi-lattice operation — associative, commutative, idempotent —
    gives "automatic fault-tolerance": gossiping the join of one's own
    value with the neighbours' is order-, duplication- and
    timing-insensitive, so the network converges to the componentwise
    join no matter how messages interleave or which benign faults occur.
    The iterated OR of the Flajolet–Martin census (§1) is the paper's
    running example; min-label shortest paths and max-flood are others.

    This module packages the class generically: a first-class semilattice
    value yields a gossip automaton, a validity checker, and the law
    tests used by the property suite. *)

type 'a t = private {
  join : 'a -> 'a -> 'a;
  name : string;
}

val make : name:string -> join:('a -> 'a -> 'a) -> 'a t
(** Wrap a join operation.  Laws are not checked here; use {!laws_hold}
    in tests. *)

val laws_hold : 'a t -> elements:'a list -> bool
(** Exhaustively check associativity, commutativity and idempotence over
    the given universe. *)

val gossip : 'a t -> init:(Symnet_graph.Graph.t -> int -> 'a) -> 'a Fssga.t
(** The gossip automaton: on activation, join self with every neighbour
    state.  (Reading "the join of the neighbour multiset" is an SM
    function: it depends only on the {e set} of values present, a
    finite-state observation.)  Deterministic; quiesces at the
    componentwise join of the initial values. *)

val component_fixpoint :
  'a t -> Symnet_graph.Graph.t -> init:(int -> 'a) -> (int * 'a) list
(** Oracle: the value each live node should converge to — the join of the
    initial values over its connected component. *)

(** {1 Stock instances} *)

val bor : int t
(** Bitwise OR on int bitmasks (the census lattice). *)

val max_int_lattice : int t
val min_int_lattice : int t

val union : unit -> int list t
(** Finite set union on sorted int lists. *)
