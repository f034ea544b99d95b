(** Segment-tree evaluation of SM programs over a summary monoid
    (arXiv:0708.0580 §3): batch build in O(n), point update + re-query
    in O(log n).

    Leaves hold input symbols ([-1] = absent, summarizing to the monoid
    identity — the engine's encoding of dead neighbours), internal
    nodes hold the combined summary of their span in left-to-right
    order.  Because the tree shape is a pure function of the leaf count
    and [combine] is deterministic integer arithmetic, results are
    bit-identical however the build is parallelized — passing [?par]
    shards the leaf and level loops over a {!Symnet_engine.Domain_pool}
    (adapted to a plain range-splitting callback, since the core
    library does not depend on the engine) without changing a bit of
    the store. *)

type t

val build :
  ?par:(n:int -> (int -> int -> unit) -> unit) -> Sm_monoid.t -> int array -> t
(** [build m inputs] summarizes every input and reduces bottom-up; O(n)
    combines.  [par ~n f] must partition [0..n-1] into disjoint ranges
    and call [f lo hi] (half-open) on each, all calls returning before
    [par] does — e.g.
    [fun ~n f -> Domain_pool.run pool ~n (fun _ lo hi -> f lo hi)].
    An empty input builds a tree whose {!result} is [finish identity]. *)

val set : t -> int -> int -> unit
(** [set t j sym] replaces leaf [j] and recombines the root path:
    O(log n), allocation-free.  A no-op when the leaf already holds
    [sym].  @raise Invalid_argument when [j] is out of range. *)

val get : t -> int -> int
(** Current symbol at a leaf. *)

val length : t -> int
(** Number of (real) leaves. *)

val monoid : t -> Sm_monoid.t

val result : t -> int
(** [finish] of the root summary — the program's result on the current
    leaf multiset.  O(1) beyond the finish itself. *)

val root_summary : t -> Sm_monoid.summary
(** The root summary itself, for digest deciders that read more than
    the finished result.  Returns an internal buffer that is only valid
    until the next tree operation — consume immediately, never retain
    (same discipline as {!View}). *)

val eval :
  ?par:(n:int -> (int -> int -> unit) -> unit) ->
  Sm_monoid.t ->
  int array ->
  int
(** One-shot [build] + [result]. *)
