(** Isotonic web automata (paper §5.1; Milgram [14], Rosenfeld–Milgram
    [19]).

    A single finite-state agent walks a graph whose nodes carry labels
    from a finite set.  A program is a list of rules; a rule fires when
    the agent's state and its node's label match and the rule's
    presence/absence tests on the {e neighbourhood labels} hold.  Firing
    relabels the current node, optionally moves the agent to a neighbour
    carrying a specified label, and sets a new agent state.  The first
    matching rule fires; if none matches (or a move target is missing)
    the agent halts.

    The model has a single locus of action but the same finiteness and
    symmetry discipline as the FSSGA model: the agent cannot name
    neighbours, only test for the presence or absence of labels and move
    to {e some} neighbour with a given label (the choice is adversarial /
    external, supplied by the driver). *)

type condition = {
  in_state : int;
  at_label : int;
  present : int list;  (** labels that must occur among the neighbours *)
  absent : int list;  (** labels that must not occur among the neighbours *)
}

type effect = {
  relabel : int;
  move_to : int option;  (** move to some neighbour with this label *)
  next_state : int;
}

type rule = { cond : condition; eff : effect }

type program = {
  n_states : int;
  n_labels : int;
  start_state : int;
  rules : rule list;
}

val check_program : program -> unit
(** Validate rule ranges.  @raise Invalid_argument on nonsense. *)

(** {1 Execution} *)

type run

val start :
  ?choose:(Symnet_prng.Prng.t -> int array -> int) ->
  rng:Symnet_prng.Prng.t ->
  program ->
  Symnet_graph.Graph.t ->
  at:int ->
  init_labels:(int -> int) ->
  run
(** Place the agent.  [init_labels v] gives node [v]'s starting label.
    [choose] resolves the move nondeterminism (default: uniform random
    among eligible neighbours). *)

val step : run -> bool
(** Fire the first matching rule; [false] if the agent halted (no rule
    matched, or the move target label was absent). *)

val steps : run -> int
val agent_position : run -> int
val labels : run -> int array
val halted : run -> bool

val run_until_halt : run -> max_steps:int -> int
(** Steps executed before halting (or [max_steps]). *)
