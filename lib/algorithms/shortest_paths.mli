(** Decentralized shortest paths / clustering (paper §2.2).

    A fixed set [T] of nodes ("data sinks") hold label 0; every other node
    repeatedly sets its label to one more than the minimum of its
    neighbours' labels, capped at [cap] for components containing no sink.
    At quiescence the label of a node is its hop distance to the nearest
    sink (or [cap]).  The algorithm is 0-sensitive: after any benign fault
    it re-converges to the distances of the surviving graph. *)

type state = { is_sink : bool; label : int }

val automaton : sinks:int list -> cap:int -> state Symnet_core.Fssga.t
(** [cap] bounds the label range (use the node count).  Non-sink nodes
    start at [cap].  The min is taken only over finite label values, and
    the scan is a finite chain of thresh observations, keeping the
    transition in the mod-thresh class.

    The automaton's states are shared, immutable records: one sink
    record, one [cap] record, and one record per label in between, from
    a table each automaton grows by doubling as labels are first
    reached (1,024 slots for a wave that reaches label 632, not
    [cap + 1]).  So [init] and a step allocate nothing, and a step that
    keeps its label returns [self].  Nothing depends on the sharing for
    meaning: a record built outside the automaton, such as a
    corruption's [{ s with label }], behaves as the shared record of its
    label, since the engine compares states structurally. *)

val label : state -> int

val route_next : state Symnet_engine.Network.t -> int -> int option
(** Greedy packet routing (§2.2's application): a minimum-label live
    neighbour of the node, or [None] at a sink / isolated node. *)

val route_path : state Symnet_engine.Network.t -> src:int -> int list
(** Follow [route_next] from [src] until a sink (or a dead end); returns
    the node sequence including the endpoints. *)
