(** Deterministic adversarial link layer for the sharded runtime.

    Perturbs each (src, dst) shard channel's message stream — drop,
    duplicate, bounded reorder, delay-by-k-rounds — with every random
    draw taken from a pure {!Symnet_prng.Prng.split_key} chain keyed by
    (src, dst, round, message index): faults are a function of the seed
    and the traffic alone, never of drain order or domain count, so a
    faulted run is bit-identical at every (shards, domains) pair and
    across rollback replays.

    An optional {e reliable exchange} layers sequence numbers, in-order
    delivery with an out-of-order buffer, lossless cumulative end-of-round
    acks, exponential-backoff retransmission, and a per-channel in-flight
    cap (the paper's S16 bounded channels) with FIFO backpressure on
    top of the lossy channel.  Under reliable exchange every ghost
    update is eventually applied in order, so a self-stabilising
    computation reaches the same fixed point as the fault-free run. *)

module Recorder := Symnet_obs.Recorder

type kind =
  | Drop  (** message vanishes *)
  | Duplicate  (** message arrives twice *)
  | Reorder of { window : int }
      (** message slips up to [window] positions later in its batch *)
  | Delay of { rounds : int }  (** message arrives [rounds] rounds late *)

type target =
  | All_channels
  | Cut_channels
      (** only channels crossing a bridge edge of the graph (see
          {!Symnet_graph.Analysis.bridges}); set via {!set_cut} *)

type fault = { kind : kind; p : float; target : target }

type spec = {
  faults : fault list;
  reliable : bool;  (** sequence/ack/retransmit protocol on *)
  cap : int;  (** max in-flight per channel; [0] = unbounded *)
  backoff : int;  (** base retransmit backoff, in rounds *)
}

val default_spec : spec
(** No faults, unreliable, [cap = 16], [backoff = 1]. *)

val active : spec -> bool
(** Whether this spec requires a link runtime at all. *)

type 'q t

val create : seed:int -> shards:int -> spec -> 'q t

val spec : 'q t -> spec

val set_cut : 'q t -> (int * int) list -> unit
(** Declare which (src, dst) shard pairs carry bridge edges; faults with
    [target = Cut_channels] apply only to those. *)

val exchange :
  'q t ->
  round:int ->
  src:int ->
  dst:int ->
  batch:(int * 'q) list ->
  deliver:(slot:int -> state:'q -> unit) ->
  recorder:Recorder.t ->
  int
(** Process one channel for one round: admit [batch] (this round's
    outbox content towards [dst], as (ghost slot, state) pairs in
    enqueue order), retransmit overdue unacked messages, push the
    outgoing set through the fault pipeline, and deliver what arrives
    this round through [deliver] in deterministic order.  Must be called
    for {e every} src ≠ dst channel {e every} round (delayed traffic can
    be due on a round with an empty batch), in ascending (dst, src)
    order on a single domain — except idle channels (see
    {!channel_busy}), which may be skipped.  Returns the delivered
    count. *)

val busy : 'q t -> bool
(** Whether any channel still carries traffic (unacked, deferred,
    in-transit or buffered out-of-order) — OR this into the round's
    activity so the run does not quiesce with messages in flight.
    Allocates nothing. *)

val channel_busy : 'q t -> src:int -> dst:int -> bool
(** Whether channel (src, dst) carries traffic, as {!busy} counts it.
    A channel that does not, with an empty batch, is idle: {!exchange}
    would draw, deliver and record nothing on it, so the caller may skip
    the call (and building its batch) without changing any result. *)

val reset : 'q t -> unit
(** Drop all in-flight traffic and restart every channel's sequence
    space.  Call whenever ghosts are resynchronised from the
    authoritative flat states (resync / restore / rebalance) — the lost
    messages are redundant with the resync.  Quarantine flags survive. *)

val quarantine_stalled : 'q t -> (int * int) list
(** Quarantine every channel still carrying traffic: the fault pipeline
    bypasses quarantined channels from now on.  Returns the newly
    quarantined (src, dst) pairs; the caller should resync ghosts and
    {!reset}.  Backs the {!Runner}'s [Degrade_links] recovery policy. *)

(** {1 Counters} (cumulative) *)

val messages_dropped : 'q t -> int
val duplicated : 'q t -> int
val retries : 'q t -> int
val stalls : 'q t -> int
(** Rounds in which a channel's in-flight cap deferred traffic. *)

val delivered : 'q t -> int

(** {1 Spec grammar} *)

val grammar : string
(** Human-readable grammar summary, embedded in parse errors. *)

val spec_of_string :
  string -> (fault * bool option * int option * int option, string) result
(** Parse one [link=...] process segment: the fault plus any
    [reliable]/[cap]/[backoff] overrides it carried.  [','] is accepted
    as a separator synonym for [':'].  Used by {!Chaos.of_spec}. *)

val merge_spec : spec -> fault * bool option * int option * int option -> spec
(** Fold one parsed segment into an accumulating spec (fault appended;
    flag overrides are last-wins). *)

val string_of_spec : spec -> string
(** Canonical spec string; [""] when there are no faults.  Round-trips
    through {!spec_of_string}/{!merge_spec}. *)
