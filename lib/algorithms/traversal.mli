(** Milgram's graph traversal in the FSSGA model (paper §4.5,
    Algorithm 4.3).

    A single agent (the {e hand}) visits every node.  The path from the
    originator to the hand is marked [Arm]; unvisited nodes adjacent to
    the arm are kept in a [By_arm] holding state so the arm never touches
    or crosses itself.  The hand extends onto a [Blank] neighbour chosen
    by the coin-flip local election of §4.4 (run as a subroutine), or
    retracts — marking its position [Visited] — when no blank neighbour
    remains.  Rounds alternate (mod-2 clock, all nodes in lockstep):
    even rounds maintain the by-arm frontier, odd rounds run the agent.

    The arm traces a scan-first-search spanning tree, so the hand changes
    position exactly [2n - 2] times, and with the O(log n) expected
    election cost per step the traversal finishes in O(n log n) rounds
    w.h.p.  Its sensitivity is Theta(n): killing any arm node strands the
    agent (experiment E13). *)

(** Election substate of a participating blank node. *)
type part = P_none | P_heads | P_tails | P_eliminated

(** Election substate of the hand. *)
type hand_sub = H_idle | H_flip | H_waiting | H_notails | H_onetails

type status =
  | Blank of part
  | By_arm
  | Arm
  | Hand of hand_sub
  | Visited

type state = { originator : bool; parity : bool; status : status }

val automaton : originator:int -> state Symnet_core.Fssga.t
(** Run with the synchronous scheduler. *)

val status : state -> status

val all_visited : state Symnet_engine.Network.t -> bool
val visited_count : state Symnet_engine.Network.t -> int
val arm_nodes : state Symnet_engine.Network.t -> int list

type stats = {
  rounds : int;
  hand_moves : int;  (** hand position changes; [2n-2] on success *)
  completed : bool;  (** every live node ended [Visited] *)
}

val run :
  rng:Symnet_prng.Prng.t ->
  Symnet_graph.Graph.t ->
  originator:int ->
  ?recorder:Symnet_obs.Recorder.t ->
  ?max_rounds:int ->
  unit ->
  stats
(** [recorder] (default {!Symnet_obs.Recorder.null}) receives run/round
    events and the per-activation stream from the underlying network. *)
