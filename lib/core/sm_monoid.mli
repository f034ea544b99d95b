(** Monoid-of-summaries compilation of SM programs (Pritchard,
    "Efficient Divide-and-Conquer Implementations of Symmetric FSAs",
    arXiv:0708.0580).

    A {!summary} condenses any sub-multiset of a program's inputs into a
    fixed-width record such that [combine] is associative (and, for SM
    programs, commutative) and [finish] of a whole-input summary equals
    the program's result.  This is what makes divide-and-conquer and
    {e incremental} evaluation possible: {!Sm_segtree} arranges
    summaries in a balanced tree, so one changed input re-evaluates in
    O(log n) combines instead of an O(n) rescan.

    - {!of_sequential}: the summary is the transition function
      [W -> W] induced by the segment, [combine] is composition.  This
      is exact for {e every} sequential program (SM or not) as long as
      summaries are combined in left-to-right segment order — which
      {!Sm_segtree} guarantees — so tree evaluation is bit-identical to
      {!Sm.run_sequential}.
    - {!of_mod_thresh}: the summary keeps, per input state [q], the
      segment multiplicity both mod [M_q] (the lcm of the program's
      mod-atom moduli on [q], via {!Sm_compile.atom_bounds}) and
      saturated at [T_q] (the largest thresh bound); [combine] adds
      digit-wise.  Lemma 3.8 is the proof that this loses nothing: the
      clause list evaluates exactly on the decoded digits.
    - {!custom}: an escape hatch for algorithm-specific digests (e.g. a
      census OR-mask) whose input alphabet is too large to tabulate;
      the caller supplies the monoid operations and owns the SM
      obligation (combine associative + commutative, identity neutral).

    The input symbol [-1] is accepted everywhere and summarizes to the
    identity — the engine uses it for absent (dead) neighbours. *)

type t
(** A compiled summary monoid. *)

type summary = private int array
(** A boxed summary of width {!width}.  Cells are readable ({!get}) —
    needed by custom digests' decision hooks — but only the monoid
    operations may construct or mutate one. *)

val of_sequential : Sm.sequential -> t
(** Compile a sequential program.  Summary width = [sq_w_size].
    @raise Invalid_argument if the program is malformed. *)

val of_mod_thresh : Sm.mod_thresh -> t
(** Compile a mod-thresh program.  Summary width = [mt_q_size].
    @raise Invalid_argument if the program is malformed. *)

val custom :
  ?q_size:int ->
  ?r_size:int ->
  width:int ->
  identity:(int array -> int -> unit) ->
  summarize:(int array -> int -> int -> unit) ->
  combine:(int array -> int -> int array -> int -> int array -> int -> unit) ->
  absorb:(int array -> int -> int -> unit) ->
  finish:(int array -> int -> int) ->
  unit ->
  t
(** [custom ~width ~identity ~summarize ~combine ~absorb ~finish ()]
    builds a monoid from user operations over flat stores:
    [identity st off] writes the neutral summary at [st.(off ..)],
    [summarize st off sym] writes the one-input summary of [sym]
    (symbols are {e not} range-checked: [q_size] defaults to [0],
    meaning an open alphabet), [combine a aoff b boff dst doff] writes
    the product (and must tolerate [dst]/[doff] aliasing the {e left}
    argument), [absorb st off sym] is the in-place
    [combine st (summarize sym)], and [finish st off] maps a summary to
    the result.  CALLER OBLIGATION: [combine] must be associative and
    commutative with [identity] neutral, so the value depends only on
    the input multiset (the SM discipline — cf. {!View.join_with}).
    @raise Invalid_argument when [width < 1]. *)

val width : t -> int
(** Number of int cells in a summary. *)

val q_size : t -> int
(** Input alphabet bound ([0] for an open custom alphabet). *)

val r_size : t -> int
(** Result alphabet bound ([0] for custom monoids built without one). *)

(** {1 Boxed operations} *)

val identity : t -> summary
(** The neutral summary (empty input segment). *)

val summarize : t -> int -> summary
(** Summary of a single input symbol ([-1] = identity). *)

val combine : t -> summary -> summary -> summary
(** Monoid product, allocating a fresh summary. *)

val absorb : t -> summary -> int -> unit
(** [absorb m s sym] sets [s <- combine s (summarize sym)] in place,
    allocation-free ([-1] is a no-op). *)

val finish : t -> summary -> int
(** Result of a whole-input summary. *)

val get : summary -> int -> int
(** Read one summary cell (for custom digests' decision hooks). *)

(** {1 Offset-based operations (engine side)}

    Allocation-free variants over flat int stores holding many
    width-sized summaries back to back; {!Sm_segtree} and the engine's
    digest cache are the intended callers.  Algorithm code should use
    the boxed API. *)

val summarize_into : t -> int array -> int -> int -> unit

val combine_into :
  t -> int array -> int -> int array -> int -> int array -> int -> unit
(** [combine_into m a aoff b boff dst doff].  [dst]/[doff] may alias the
    {e left} argument, never the right. *)

val finish_at : t -> int array -> int -> int

val blit_to_summary : t -> int array -> int -> summary -> unit
(** Copy the summary at an offset into a boxed summary (for handing an
    engine-held store cell to algorithm code without exposing the
    store). *)
