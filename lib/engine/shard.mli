(** One partition of a sharded network (see {!Sharded_network} for the
    round protocol and the determinism argument).

    A shard owns a contiguous node range [[lo, hi)] with a local copy of
    the owned states, a translated slice of the global CSR, {e ghost}
    buffers holding the last exchanged state of every remote neighbour,
    and one outbound message queue per peer shard.  During the read
    phase a shard touches only its own memory (local states + ghosts);
    changed states are propagated to peers exclusively through the
    queues, drained in deterministic (source shard, sequence) order at
    the exchange phase — the paper's S16 bounded channels, double
    buffered: this round's reads see last round's exchanged ghosts while
    this round's sends accumulate in the outboxes. *)

module Graph := Symnet_graph.Graph
module Prng := Symnet_prng.Prng

type 'q t

val build : csr:Graph.csr -> boundaries:int array -> states:'q array -> 'q t array
(** Build the K shards of one partition ([boundaries] has K+1 entries,
    ascending, from 0 to n).  Local copies and ghosts are initialised
    from [states] (the flat engine's array); ghost indices — the message
    slots — are a deterministic function of the partition alone. *)

(** {1 Round phases} *)

val load_live : 'q t -> csr:Graph.csr -> unit
(** Load every live owned node, ascending, as this round's stepped set
    (a naive round). *)

val load_slice : 'q t -> int array -> first:int -> stop:int -> unit
(** Load [front.(first .. stop-1)] as this round's stepped set: the
    shard's contiguous slice of the ascending dirty frontier (every id
    in the slice must be an owned live node). *)

val read :
  'q t ->
  csr:Graph.csr ->
  aut:'q Symnet_core.Fssga.t ->
  det:bool ->
  shared_rng:Prng.t ->
  rngs:Prng.t array ->
  int
(** Step the loaded set against the frozen local+ghost snapshot.  Views
    are bit-identical to [Graph.iter_neighbours] fills; probabilistic
    nodes draw from [rngs.(v)], deterministic ones see [shared_rng] —
    exactly the flat engine's rng selection.  Returns the stepped
    count. *)

val stepped : 'q t -> int
(** Nodes stepped by the last {!read} (the frontier size). *)

val commit_quiet : 'q t -> net:'q Network.t -> int
(** Commit the stepped set through {!Network.commit_node_quiet},
    updating local copies and enqueueing changed states towards every
    peer holding a ghost.  Concurrency-safe across shards.  Returns
    (and latches, see {!last_committed}) the transition count. *)

val commit_recorded : 'q t -> net:'q Network.t -> int
(** Commit with full bookkeeping ({!Network.commit_node}: recorder hook,
    shared transition counter).  Must be called shard-ascending on one
    domain so telemetry matches the flat engine byte for byte. *)

val drain : 'q t array -> int -> int
(** [drain shards d] drains every shard's outbox towards [d] into [d]'s
    ghosts in ascending (source shard, sequence) order and resets those
    queues.  Each ghost slot has a single writing shard, so distinct
    destinations may drain concurrently.  Returns messages applied. *)

(** {1 Raw channel access (adversarial link layer)}

    {!Link} replaces {!drain} with its own fault/retry pipeline when a
    channel-fault model is configured; these accessors expose one
    outbox as an ordered batch and let the link runtime deliver into
    the destination's ghosts itself. *)

val outbox_len : 'q t -> dst:int -> int
val outbox_slot : 'q t -> dst:int -> int -> int
val outbox_state : 'q t -> dst:int -> int -> 'q
val outbox_clear : 'q t -> dst:int -> unit

val ghost_global : 'q t -> int -> int
(** The global node id behind a ghost slot (for dirty re-marking). *)

val deliver : 'q t -> slot:int -> state:'q -> bool
(** Write one message into a ghost slot; [true] iff the value changed. *)

(** {1 Resynchronisation / snapshots} *)

val resync : 'q t -> states:'q array -> unit
(** Refresh local copies and ghosts from the flat state array and drop
    undelivered messages (after external writes moved the epoch).
    Writes only the cells that are not physically equal to the flat
    state, so a resync after a few external writes costs a read pass
    over the shard, not a write barrier per cell. *)

type 'q snap

val snapshot : 'q t -> 'q snap
val restore_snap : 'q t -> 'q snap -> unit

(** {1 Telemetry accessors} *)

val id : 'q t -> int
val lo : 'q t -> int
val hi : 'q t -> int
val n_local : 'q t -> int
val ghost_count : 'q t -> int
val last_committed : 'q t -> int
(** Transitions committed in the last round. *)

val msgs_out : 'q t -> int
(** Cumulative cross-shard messages enqueued by this shard. *)
