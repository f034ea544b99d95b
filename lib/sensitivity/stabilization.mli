(** Self-stabilization probes (paper §5.2, after Dolev [5]).

    An algorithm is {e self-stabilizing} when it eventually behaves
    correctly from {e any} starting configuration — equivalently, it
    recovers from any finite number of arbitrary transient faults.  The
    paper observes that a self-stabilizing FSSGA leader election would
    make many FSSGA algorithms self-stabilizing, and leaves it open.

    This harness tests the property empirically: it runs an automaton
    from adversarially corrupted network states and checks a
    caller-supplied legitimacy predicate after convergence.  The test
    suite uses it to separate the paper's algorithms:
    - the §2.2 shortest-path labelling {e is} self-stabilizing (min+1
      relaxation forgets arbitrary labels);
    - the §1 census is {e not} (the OR can never unset a corrupted bit);
    - the §4.1 2-colouring is {e not} (a corrupted FAILED floods and
      sticks). *)

type 'q verdict = {
  trials : int;
  recovered : int;  (** trials that reached a legitimate state *)
  mean_recovery_rounds : float;  (** over recovered trials *)
}

val probe :
  rng:Symnet_prng.Prng.t ->
  automaton:'q Symnet_core.Fssga.t ->
  graph:(unit -> Symnet_graph.Graph.t) ->
  corrupt:(Symnet_prng.Prng.t -> Symnet_graph.Graph.t -> int -> 'q) ->
  legitimate:('q Symnet_engine.Network.t -> bool) ->
  trials:int ->
  max_rounds:int ->
  'q verdict
(** Each trial: build the graph, initialize every node with [corrupt]
    (an arbitrary adversarial state), run through
    {!Symnet_engine.Runner} until [legitimate] holds (recovery), the
    network quiesces illegitimate (it provably never will recover), or
    the round budget is spent. *)

val mttr :
  rng:Symnet_prng.Prng.t ->
  automaton:'q Symnet_core.Fssga.t ->
  graph:(unit -> Symnet_graph.Graph.t) ->
  chaos:Symnet_engine.Chaos.process list ->
  ?corrupt:(Symnet_prng.Prng.t -> 'q Symnet_engine.Network.t -> int -> 'q) ->
  legitimate:('q Symnet_engine.Network.t -> bool) ->
  ?settle_rounds:int ->
  trials:int ->
  max_rounds:int ->
  unit ->
  'q verdict
(** Mean rounds-to-recovery under injected faults.  Each trial: run the
    automaton from its own initial states until [legitimate] (at most
    [settle_rounds], default 500), then run it again under the given
    chaos processes — seeded per trial from [rng], so trials differ but
    the whole experiment replays from one seed — and measure the rounds
    from the chaos horizon to regained legitimacy.
    [mean_recovery_rounds] is the MTTR over recovered trials;
    unrecovered trials are those that quiesced illegitimate or exhausted
    [max_rounds].  [corrupt] supplies the adversarial state for
    [Corrupt] processes (default: reset to the initial state).
    @raise Invalid_argument if the chaos is unbounded (no horizon) —
    MTTR needs a last-fault round to measure from. *)
