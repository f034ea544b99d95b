(** Agents on graphs (paper §2.1, §4.5–4.6).

    An agent inhabits one node at a time and moves along live edges.  The
    random-walk agent underlies the bridge-finding algorithm of §2.1. *)

module Graph := Symnet_graph.Graph
module Prng := Symnet_prng.Prng

type t

val create : rng:Prng.t -> Graph.t -> start:int -> t
(** Place an agent.  @raise Invalid_argument if [start] is dead. *)

val position : t -> int
val graph : t -> Graph.t

val step_random : t -> int option
(** Move to a uniformly random live neighbour.  [None] (and no movement)
    if the current node is isolated or dead. *)

val last_edge : t -> (Graph.edge * [ `Forward | `Backward ]) option
(** The edge used by the most recent move and the direction of use
    relative to the edge's canonical [u -> v] orientation. *)
