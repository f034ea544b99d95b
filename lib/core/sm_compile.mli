(** Compilers realizing Theorem 3.7: the classes of sequential, parallel
    and mod-thresh SM functions coincide.

    Each construction follows the corresponding proof in the paper:
    {!parallel_to_sequential} is Lemma 3.5 (adjoin a [NIL] start state),
    {!mod_thresh_to_parallel} is Lemma 3.8 (a product of finite mod- and
    saturating counters, combined pointwise), and
    {!sequential_to_mod_thresh} is Lemma 3.9 (eventual periodicity of the
    per-state iterate [g_j], one clause per equivalence-class vector).
    The compositions close the circle; as the paper notes after the
    theorem, both directed constructions can blow up exponentially, which
    experiment E11 measures. *)

exception Too_large of string
(** Raised when a compiled program would exceed the state/clause budget. *)

val parallel_to_sequential : Sm.parallel -> Sm.sequential
(** Lemma 3.5.  Exact; adds a single working state. *)

val atom_bounds : Sm.mod_thresh -> int array * int array
(** [atom_bounds mt = (moduli, threshes)]: per input state [i], [M_i]
    (the lcm of the moduli of the mod atoms mentioning [i], [1] when
    none) and [T_i] (the largest thresh bound mentioning [i], [0] when
    none).  These are Lemma 3.8's counter bounds — keeping each
    multiplicity mod [M_i] and saturated at [T_i] decides every atom
    exactly.  Shared by {!mod_thresh_to_parallel} and
    {!Sm_monoid.of_mod_thresh}. *)

val mod_thresh_to_parallel :
  ?max_states:int -> Sm.mod_thresh -> Sm.parallel
(** Lemma 3.8.  The working alphabet is the product over states [i] of
    [Z_{M_i} x {0..T_i}] where [M_i] is the lcm of the moduli mentioning
    [i] and [T_i] the largest threshold mentioning [i].
    @raise Too_large if the product exceeds [max_states] (default 200000). *)

val sequential_to_mod_thresh :
  ?max_clauses:int -> Sm.sequential -> Sm.mod_thresh
(** Lemma 3.9.  One clause per vector of eventual-periodicity classes;
    requires the input program to actually be SM (otherwise the result is
    one of the orderings' answers — callers should have validated with
    {!Sm.sequential_is_sm}).
    @raise Too_large if the clause count exceeds [max_clauses]
    (default 200000). *)

val sequential_to_parallel :
  ?max_states:int -> ?max_clauses:int -> Sm.sequential -> Sm.parallel
(** Composition of the two lemmas (the converse of Lemma 3.5). *)

(** {1 Random program generation (for tests and E11)} *)

val random_mod_thresh :
  Symnet_prng.Prng.t -> q_size:int -> r_size:int -> clauses:int ->
  max_mod:int -> max_thresh:int -> depth:int -> Sm.mod_thresh
(** Random mod-thresh program: SM by construction (Definition 3.6). *)
