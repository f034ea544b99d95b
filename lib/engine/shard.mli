(** One partition of a sharded network (see {!Sharded_network} for the
    round protocol and the determinism argument).

    A shard owns a contiguous node range [[lo, hi)] of the flat
    engine's state array — there is no second copy of the owned states
    — plus {e ghost} buffers holding the last exchanged state of every
    remote neighbour, the ghost index of each of its remote adjacency
    slots, and one outbound message queue per peer shard.  During the
    read phase a shard reads its owned slice of the flat array, its own
    ghosts and its slice of the network's frontier buffer, and writes
    only its owned cells of the network's commit buffer; only its own
    commit writes its slice of the state array, and no commit runs
    during a read phase.  Changed states reach peers exclusively through
    the queues, drained in deterministic (source shard, sequence) order
    at the exchange phase — the paper's S16 bounded channels, double
    buffered: this round's reads see last round's exchanged ghosts while
    this round's sends accumulate in the outboxes. *)

module Prng := Symnet_prng.Prng

type 'q t

val build : net:'q Network.t -> boundaries:int array -> 'q t array
(** Build the K shards of one partition of [net] ([boundaries] has K+1
    entries, ascending, from 0 to n).  The shards keep the network's
    state array ({!Network.raw_states}), not a copy, and initialise
    their ghosts from it; ghost indices — the message slots — are a
    deterministic function of the partition alone.  O(n + m) for K > 1;
    O(1) for K = 1, whose one shard has no ghosts and sends nothing. *)

(** {1 Round phases} *)

val load_live : 'q t -> unit
(** Make every live owned node, ascending, this round's stepped set (a
    naive round). *)

val load_slice : 'q t -> first:int -> stop:int -> unit
(** Make [front.(first .. stop-1)] of the network's frontier buffer
    ({!Network.raw_frontier}) this round's stepped set: the shard's
    contiguous slice of the ascending dirty frontier (every id in the
    slice must be an owned live node).  Read in place, not copied. *)

val read :
  ?pool:Domain_pool.t ->
  'q t ->
  aut:'q Symnet_core.Fssga.t ->
  det:bool ->
  shared_rng:Prng.t ->
  rngs:Prng.t array ->
  next:'q array ->
  unit
(** Step the loaded set against the frozen snapshot (owned slice of the
    flat array + ghosts) into [next], the network's commit buffer
    ({!Network.raw_next}, fetched once by the caller before any shard
    reads).  Views are bit-identical to [Graph.iter_neighbours] fills;
    probabilistic nodes draw from [rngs.(v)], deterministic ones see
    [shared_rng] — exactly the flat engine's rng selection.  [pool]
    cuts a lone shard's loaded set (a K = 1 runtime: no ghosts, no
    peers) into equal slices read on the pool's slots.
    @raise Invalid_argument when given a pool with peers. *)

val stepped : 'q t -> int
(** Nodes stepped by the last {!read} (the frontier size). *)

val commit : ?pool:Domain_pool.t -> 'q t -> next:'q array -> unit
(** Commit the stepped set's states from [next] (the buffer its {!read}
    filled) through {!Network.commit_node} and enqueue changed states
    towards every peer holding a ghost; latches the transition count
    ({!last_committed}).  Shards may commit concurrently inside
    {!Network.commit_parallel}; called shard-ascending on one domain,
    the recorder's activation stream matches {!Network.sync_step}'s byte
    for byte.  [pool] splits a lone shard's commit as it splits its
    {!read}, inside {!Network.commit_parallel}. *)

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

val resync : 'q t -> mark:bool -> unit
(** Refresh the ghosts from the flat state array and drop undelivered
    messages (after external writes moved the epoch).  Owned states need
    no refresh: they are the flat array.  Writes only the ghosts that
    are not physically equal to the flat state, so a resync costs a read
    pass over the ghosts, not over the shard.  With [mark], every ghost
    it rewrites re-marks its node's neighbourhood dirty
    ({!Network.mark_dirty_around}): in a linked run that ghost's update
    may be in flight among the dropped messages, and its delivery is
    what would have woken the readers that stepped against the stale
    value. *)

type 'q snap
(** A shard's ghosts and last stepped count ({!stepped}); the owned
    states are in the network's own checkpoint. *)

val snapshot : 'q t -> 'q snap

val restore_snap : 'q t -> 'q snap -> unit
(** Put back the ghosts and the stepped count, and drop undelivered
    messages.  The shard must have the snapshot's layout. *)

(** {1 Telemetry accessors} *)

val id : 'q t -> int
val lo : 'q t -> int
val hi : 'q t -> int
val ghost_count : 'q t -> int
val last_committed : 'q t -> int
(** Transitions committed in the last round. *)

val msgs_out : 'q t -> int
(** Cumulative cross-shard messages enqueued by this shard. *)
