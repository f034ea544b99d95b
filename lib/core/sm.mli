(** Formal symmetric multi-input (SM) functions (paper §3.1–3.3).

    States are represented as dense integers: an input alphabet
    [Q = {0, ..., q_size-1}], a result alphabet [R = {0, ..., r_size-1}]
    and a working alphabet [W = {0, ..., w_size-1}].  Three program
    formalisms are provided, matching Definitions 3.2, 3.4 and 3.6, with
    interpreters and decision procedures for the SM property.  The
    compilers between them (Theorem 3.7) live in {!Sm_compile}. *)

(** {1 Sequential programs (Definition 3.2)} *)

type sequential = {
  sq_q_size : int;
  sq_w_size : int;
  sq_w0 : int;  (** distinguished starting working state *)
  sq_p : int array array;  (** [sq_p.(w).(q)] = next working state *)
  sq_beta : int array;  (** [sq_beta.(w)] = result *)
  sq_r_size : int;
}

val check_sequential : sequential -> unit
(** Validate array shapes and ranges.  @raise Invalid_argument if bad. *)

val run_sequential : sequential -> int list -> int
(** Process the inputs left to right.  @raise Invalid_argument on an empty
    input or out-of-range state. *)

(** {1 Parallel programs (Definitions 3.3–3.4)} *)

type parallel = {
  pa_q_size : int;
  pa_w_size : int;
  pa_alpha : int array;  (** [pa_alpha.(q)] = leaf working state *)
  pa_p : int array array;  (** [pa_p.(w1).(w2)] = combination *)
  pa_beta : int array;
  pa_r_size : int;
}

val check_parallel : parallel -> unit

(** Shape of the combination tree (Definition 3.3).  [Leaf i] consumes the
    i-th input (0-indexed, leaves numbered left to right must be exactly
    [0..k-1]). *)
type tree = Leaf of int | Node of tree * tree

val left_comb_tree : int -> tree
(** The left-to-right sequential shape: [Node (Node (Leaf 0, Leaf 1), ...)]. *)

val balanced_tree : int -> tree
(** Balanced divide-and-conquer shape (midpoint splits).  Memoized per
    [k] — trees are immutable, so repeated callers share one
    structure. *)

val random_tree : Symnet_prng.Prng.t -> int -> tree
(** Uniformly shaped random binary tree on [k] leaves labelled 0..k-1 in
    left-to-right order. *)

val tree_leaves : tree -> int
(** Number of leaves. *)

val run_parallel : ?tree:tree -> parallel -> int list -> int
(** Evaluate the program on the inputs, combining along [tree] (balanced
    by default).  The default path runs an iterative evaluator that
    replays {!balanced_tree}'s exact midpoint association from an
    explicit O(log k) stack — no tree is materialized and nothing is
    allocated per input.  @raise Invalid_argument on empty input,
    out-of-range state, or a tree whose leaf count/labels mismatch the
    input. *)

(** {1 Mod-thresh programs (Definition 3.6)} *)

(** Boolean combination of mod atoms "mu_q = r (mod m)" and thresh atoms
    "mu_q < t" over the multiplicity vector of the input. *)
type prop =
  | True
  | False
  | Mod of int * int * int  (** [Mod (q, r, m)]: mu_q = r (mod m), m >= 1 *)
  | Thresh of int * int  (** [Thresh (q, t)]: mu_q < t, t >= 1 *)
  | Not of prop
  | And of prop * prop
  | Or of prop * prop

type mod_thresh = {
  mt_q_size : int;
  mt_clauses : (prop * int) list;
      (** tried in order: first true proposition returns its result *)
  mt_default : int;  (** returned when no clause fires *)
  mt_r_size : int;
}

val check_mod_thresh : mod_thresh -> unit

val multiplicities : q_size:int -> int list -> int array
(** Multiplicity vector of an input sequence. *)

val run_mod_thresh : mod_thresh -> int list -> int

(** {1 SM-validity decision (bounded)}

    A sequential or parallel program is only a program {e for} an SM
    function when Equation (2)/(3) is order- (and tree-) independent.
    These checkers decide that property exhaustively for all input
    multisets of size [1..max_len] by dynamic programming over multisets:
    the program is SM-valid iff, for every multiset, the set of results
    reachable by {e any} processing order (and any tree) is a singleton. *)

val sequential_is_sm : sequential -> max_len:int -> bool

val parallel_is_sm : parallel -> max_len:int -> bool

(** {1 Size metrics (for the §3.3 blow-up experiment)} *)

val sequential_size : sequential -> int
(** Number of working states. *)

val parallel_size : parallel -> int
(** Number of working states. *)

val mod_thresh_size : mod_thresh -> int
(** Number of clauses (including the default). *)

val prop_uses_mod : prop -> bool
val mod_thresh_uses_mod : mod_thresh -> bool
(** Does the program mention any nontrivial mod atom (modulus >= 2)?
    The paper closes §5.2 noting it found no practical use for mod atoms;
    the test suite checks that indeed every algorithm program in this
    library is thresh-only. *)

(** {1 Enumeration helper} *)

val multisets : q_size:int -> len:int -> int list list
(** All multisets of exactly [len] elements of [Q], each as a sorted
    list. *)
