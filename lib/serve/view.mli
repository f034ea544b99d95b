(** Consistent read snapshots of a resident network.

    A view is a checkpoint-style copy of everything a query can observe
    — the raw state array and the graph's liveness — stamped with the
    ({!Symnet_graph.Graph.version}, {!Symnet_engine.Network.state_epoch})
    pair current at capture time.  Both counters are strictly monotonic,
    so the stamp is collision-free: {!fresh} holds iff the network is
    still bit-identical to the view, and the daemon reuses a view across
    requests (and across whole batches) exactly as long as that holds.

    Derived analyses live inside the view, so batched query traffic gets
    oracle answers at amortised cost without any cross-snapshot
    invalidation protocol.  Each is built on first use: the view's
    {!Symnet_graph.Analysis.freeze}d adjacency; one component-label
    array over it, with the component sizes and the largest degree; the
    bridge list; and one search scratch that every distance query
    reuses.  Distance queries run landmark-guided searches
    ({!Symnet_graph.Analysis.guided_distances}) over the graph copy
    itself and freeze the adjacency only when they fall back to a
    breadth-first search.  The landmark table depends on the graph's
    structure alone, so views of one network can share it.

    A view can also be brought up to date in place ({!refresh}), at the
    cost of what changed: the states the network's write log names, the
    liveness its graph's flip log names.  If only states moved, every
    derived analysis is kept; if liveness moved, the scratch is
    re-marked at the flipped nodes and the adjacency, labels and bridges
    are recomputed on next use into the view's own arrays.  {!take} is
    an allocation followed by a full refresh. *)

type 'q t

val take :
  ?landmarks:Symnet_graph.Analysis.landmarks Lazy.t ->
  round:int ->
  'q Symnet_engine.Network.t ->
  'q t
(** Copy the observable state (O(n) states + O(n + m) liveness; the
    immutable CSR is shared).  Must be called between rounds — the
    daemon's event loop guarantees that.  [landmarks] (forced by the
    first distance query) must be built from the network's graph or a
    copy of it; without it the view builds its own on first use. *)

val refresh : round:int -> 'q t -> 'q Symnet_engine.Network.t -> unit
(** Bring a view of this network up to date in place: afterwards it
    answers every query exactly as a {!take} at [round] would.  O(1)
    when nothing moved; otherwise O(writes + flipped rows) from the
    logs, or O(n + m) when they do not reach back to the view's stamp;
    a constant number of small allocations.  Must be called between
    rounds.  Unlike [take], it breaks isolation: whoever holds the view
    sees it change (the daemon reads its one view only while it is
    {!fresh}). *)

val fresh : 'q t -> 'q Symnet_engine.Network.t -> bool
(** Whether the view still matches the network's (version, epoch). *)

val version : 'q t -> int
val epoch : 'q t -> int
val round : 'q t -> int
(** The round count at capture (how many rounds had run). *)

val graph : 'q t -> Symnet_graph.Graph.t
val state : 'q t -> int -> 'q

val max_degree : 'q t -> int
(** Largest live degree of the view's graph. *)

val component_sizes : 'q t -> int array
(** Size of each connected component of the live graph, components in
    the order of their smallest member.  Shared with the view: do not
    mutate. *)

val component_of : 'q t -> int -> cap:int -> int * int list
(** [component_of v node ~cap] for a live [node]: the size of its
    component and its first [min size cap] members, ascending.  O(1)
    for the size; the members cost a scan up to the last one
    returned. *)

val bridges : 'q t -> int list

val landmarks : 'q t -> Symnet_graph.Analysis.landmarks
(** The view's landmark table, built now if nothing built it yet. *)

val distances : 'q t -> sources:int list -> targets:int list -> int list
(** The multi-source BFS distance of each target, in the order given:
    {!Symnet_graph.Analysis.distances} read at the targets ([max_int]
    for an unreachable, dead or out-of-range target).  An A* search
    per target answers, or, when the targets' budgets predict more work
    than one breadth-first search or a search overruns its budget, one
    search that stops once every live target is settled.  Either runs
    in the view's scratch without allocating beyond the returned list
    and resets only the cells it wrote.
    @raise Invalid_argument if [take]'s [landmarks] came from another
    graph. *)
