(** Allocation-free ascending sort of distinct node ids, for the dirty
    frontier: a two-level power-of-two bitmap (32 ids per word, one
    summary bit per word) in preallocated scratch that each sort leaves
    cleared.  A sort of [len] ids below [n] costs O(len + n/1024). *)

type t

val create : n:int -> t
(** Scratch for ids in [0, n). *)

val sort : t -> int array -> int -> unit
(** [sort t a len] sorts [a.(0 .. len - 1)] ascending in place.  The ids
    must be distinct and in [0, n); allocates nothing. *)
