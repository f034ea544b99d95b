(** Symmetric observation of a neighbour multiset.

    A ['q View.t] is what an activating FSSGA node is allowed to see of its
    neighbours (paper §3.1): the multiset of their states, observable only
    through {e mod atoms} ([count_mod]) and {e thresh atoms} ([at_least],
    [count_upto]) in the sense of Definition 3.6.  The interface
    deliberately exposes no ordering, no exact cardinality, and no way to
    address an individual neighbour, so every transition function written
    against it factors through the multiplicity vector and is therefore an
    SM function by construction (the mod-thresh characterization of
    Theorem 3.7).

    The predicate variants ([exists], [count_where_upto], ...) classify
    states through an arbitrary pointwise function ['q -> bool]; on a
    finite state space this is a finite union of atoms, hence still
    mod-thresh.  [map] relabels states pointwise (summing multiplicities),
    which likewise preserves the class.

    Inside, an engine-built view is a list of neighbour ids read through
    arrays it was bound to (see the engine-side section): the ids are
    how the engine avoids copying states, and none of them leaves this
    module, so what a transition observes is still a function of the
    state multiset alone. *)

type 'q t

val of_list : 'q list -> 'q t
(** Build a view from the raw neighbour states.  Engine-side constructor;
    algorithm code should only consume views. *)

(** {1 Engine-side cursor construction}

    The representation is an indexed cursor over a reusable buffer of
    neighbour {e ids}, not states: the engine keeps one scratch view per
    network (and per shard), {!bind}s it once to the arrays the ids
    index, and refills the ids in place before each activation.  A warm
    activation allocates nothing for the view, and since the buffer
    holds ints, filling it runs no write barrier (a pointer store into
    an array outside the minor heap runs [caml_modify], several times
    the cost of an int store; DESIGN.md §5 has the figures).  An id
    [x >= 0] names [states.(x)] and an id [x < 0] names
    [ghosts.(lnot x)], so a shard reads its owned neighbours from the
    flat state array and its remote ones from its ghosts through one
    buffer.  The observers below read the states through the ids when
    they run: a view built this way is only valid until the next refill
    and while its bound arrays are not written, which holds because an
    activation's step returns before any commit writes a state.
    Transition functions must consume the view immediately and never
    retain it (every observer is strict, so this falls out naturally).
    No observer hands out an id or addresses a single neighbour.
    Algorithm code has no business calling these. *)

val scratch : unit -> 'q t
(** A fresh empty reusable view, bound to no arrays. *)

val bind : 'q t -> states:'q array -> ghosts:'q array -> unit
(** Make non-negative ids index [states] and negative ids [x] index
    [ghosts] at [lnot x].  The arrays are kept, not copied. *)

val clear : 'q t -> unit
(** Reset to empty, keeping the underlying buffer for reuse. *)

val push_id : 'q t -> int -> unit
(** Append one neighbour by id, growing the buffer (amortized O(1),
    allocation-free once the buffer has reached the node's degree). *)

val at_least : 'q t -> 'q -> int -> bool
(** [at_least v q t]: does state [q] occur with multiplicity [>= t]?
    (The negation of the paper's thresh atom "mu_q < t".)  States are
    compared with structural equality. *)

val exists : 'q t -> ('q -> bool) -> bool
(** Some neighbour state satisfies the predicate. *)

val for_all : 'q t -> ('q -> bool) -> bool
(** Every neighbour state satisfies the predicate (true for no
    neighbours). *)

val count_upto : 'q t -> 'q -> cap:int -> int
(** [count_upto v q ~cap = min (multiplicity q) cap].  A finite-state
    counter saturating at [cap], as used in Lemma 3.8. *)

val count_where_upto : 'q t -> ('q -> bool) -> cap:int -> int
(** Saturating count of neighbours whose state satisfies the predicate. *)

val count_mod : 'q t -> 'q -> modulus:int -> int
(** Multiplicity of the state, modulo [modulus >= 1]. *)

val count_where_mod : 'q t -> ('q -> bool) -> modulus:int -> int
(** Predicate-classified multiplicity modulo [modulus]. *)

val map : ('q -> 'p) -> 'q t -> 'p t
(** Pointwise relabelling; multiplicities of merged states add. *)

val filter_map : ('q -> 'p option) -> 'q t -> 'p t
(** Pointwise relabelling that can also drop states ([None]).  Like
    {!map}, this preserves the mod-thresh discipline: the multiplicity of
    [p] in the result is the summed multiplicity of its preimage. *)

val is_empty : 'q t -> bool
(** True when there are no neighbours at all.  (Observable in the model:
    it is the conjunction of "mu_q < 1" over the finite state space.) *)

val join_with : ('q -> 'q -> 'q) -> 'q t -> 'q option
(** [join_with j v] folds [j] over the neighbour multiset ([None] when
    empty).  CALLER OBLIGATION: [j] must be a semilattice operation
    (associative, commutative, idempotent — see
    {!Symnet_core.Semilattice.laws_hold}); then the result depends only
    on the {e set} of states present, i.e. on which multiplicities are
    nonzero — a conjunction of thresh atoms per state, hence a legal SM
    observation (paper §5's infimum functions).  With a non-semilattice
    operation the result would leak ordering and multiplicity information
    the model forbids. *)

val fold_monoid : ('acc -> 'q -> 'acc) -> 'acc -> 'q t -> 'acc
(** [fold_monoid f acc v] folds [f] over the neighbour multiset in an
    unspecified order.  CALLER OBLIGATION: [f] must be the absorb
    action of a {e commutative-monoid summary} of the multiset — i.e.
    the result must be independent of traversal order, as for the
    summaries of {!Sm_monoid} (arXiv:0708.0580) — so the fold factors
    through the multiplicity vector and stays a legal SM observation.
    Unlike {!join_with}, the operation need not be idempotent:
    multiplicities may (and do) count, e.g. saturating or modular
    counters per Lemma 3.8.  This is the primitive behind
    {!Sm_digest.to_fssga} and the election digest scan. *)
