(** Finite-state symmetric graph automata (Definitions 3.10–3.11).

    An FSSGA places a copy of the same automaton at every node of a
    connected graph.  When a node activates it reads its own state
    (asymmetrically — the "[f[q]]" indexing of Definition 3.10), reads its
    neighbours' states {e symmetrically} through a {!View.t}, draws a
    bounded amount of randomness (Definition 3.11), and moves to a new
    state.  The engine in [Symnet_engine] runs these automata under
    synchronous or asynchronous dynamics.

    The state type ['q] is abstract OCaml data but must morally be a
    finite set; the {!View.t} interface is what keeps the transition an SM
    function of the neighbourhood.  Use {!deterministic} for automata that
    ignore their random input. *)

type 'q transition = self:'q -> rng:Symnet_prng.Prng.t -> 'q View.t -> 'q
(** One activation.  [rng] models the per-activation uniform choice
    [i in {0..r-1}] of Definition 3.11; deterministic automata simply do
    not consult it.

    A step that leaves the state unchanged should return [self] itself
    (physically), not an equal copy: the engine tests physical equality
    first and then skips the structural compare of its commit, and for
    a boxed state the no-op activation then allocates nothing.  Returning
    an equal copy is still correct, only slower. *)

type 'q t = {
  name : string;  (** for traces and error messages *)
  init : Symnet_graph.Graph.t -> int -> 'q;
      (** Initial state of each node.  Receiving the node id lets callers
          express distinguished initial conditions (the one RED node of
          §4.1, the originator of §4.3, the walker start of §4.4) — the
          {e automaton} itself remains identical at every node. *)
  step : 'q transition;
  deterministic : bool;
      (** [true] iff [step] never consults [rng].  The engine uses this
          to decide whether change-driven (dirty-set) scheduling is
          sound: re-stepping a node whose closed neighbourhood is
          unchanged is a provable no-op for a deterministic transition,
          but for a probabilistic one skipping it would shift the rng
          draw sequence of every later activation.  When building the
          record by hand, claim [true] only for transitions that ignore
          [rng] entirely. *)
}

val deterministic :
  name:string ->
  init:(Symnet_graph.Graph.t -> int -> 'q) ->
  step:(self:'q -> 'q View.t -> 'q) ->
  'q t
(** Build an automaton whose transition ignores randomness (and is
    flagged as such for the dirty-set scheduler). *)

val is_deterministic : 'q t -> bool

(** {1 Running a formal program as a transition}

    Bridges the formal {!Sm} world and the engine: an automaton over
    integer states whose per-self-state transition is given by a formal
    mod-thresh program, exactly as in Definition 3.10. *)

val of_mod_thresh_family :
  name:string ->
  q_size:int ->
  init:(Symnet_graph.Graph.t -> int -> int) ->
  family:(int -> Sm.mod_thresh) ->
  int t
(** [family q] is the program [f[q]] used when the activating node is in
    state [q].  Each program must map [Q^+ -> Q] with
    [mt_q_size = mt_r_size = q_size].  A node with no live neighbours
    keeps its state (the model assumes connected graphs with >= 2 nodes;
    this convention makes fault experiments total). *)

val of_probabilistic_family :
  name:string ->
  q_size:int ->
  r:int ->
  init:(Symnet_graph.Graph.t -> int -> int) ->
  family:(int -> int -> Sm.mod_thresh) ->
  int t
(** Definition 3.11 verbatim: a probabilistic FSSGA [(Q, r, f)].  On each
    activation a uniform [i in {0..r-1}] is drawn and the program
    [family q i] = [f[q, i]] is evaluated on the neighbour view.  Every
    program must map [Q^+ -> Q]. *)
