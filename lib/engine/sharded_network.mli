(** The synchronous runtime: the flat {!Network} engine's rounds,
    executed as K partition shards communicating through explicit
    double-buffered message queues (the paper's S16 bounded channels).
    K = 1 is the flat engine: one shard, no ghosts, no exchange, and a
    layout that costs O(1) to create; every synchronous round the
    {!Runner} drives goes through one of these.

    The graph's node range is cut into K contiguous shards, each owning
    a slice of the flat state array (one state array, no per-shard
    copy), ghost buffers for remote neighbours and per-peer outboxes
    (see {!Shard}).  A round is: parallel shard-local read against the
    frozen snapshot (owned slice + ghosts), commit to the flat array
    (which stays the single source of truth for states, counters and
    telemetry), then a deterministic exchange draining each
    destination's inboxes in ascending (source shard, sequence) order.

    Results are bit-identical to {!Network.sync_step} at {e every}
    (shards, domains) combination: states, change flags,
    activation/transition counts, probabilistic draws, and — when a
    recorder is attached — the recorded event bytes.  A one-shard round
    records the flat engine's spans ([frontier], [read], [commit]); a
    K-shard round records [shard_read] per shard and, after the commit,
    [shard_exchange] (or [link_exchange]) per destination.  External
    writes to the flat engine (chaos faults, [set_state], [restore])
    land in the owned slices directly; they are detected through
    {!Network.state_epoch}, and a resync at the next [step] refreshes
    the ghosts — O(ghosts), not O(n) — so the runtime composes with the
    chaos engine and checkpointing unchanged. *)

type 'q t

val create : ?rebalance_every:int -> ?imbalance:float -> shards:int -> 'q Network.t -> 'q t
(** Wrap a network in a K-shard runtime ([shards >= 1]; boundaries start
    equal-width).  [rebalance_every] (default 0 = never) checks frontier
    balance every that many rounds and recuts the partition when the
    largest shard frontier exceeds [imbalance] (default 2.0) times the
    mean — a work-assignment change only, invisible to results. *)

val step : ?pool:Domain_pool.t -> ?dirty:bool -> 'q t -> bool
(** Run one synchronous round.  [dirty] (default false) steps only the
    dirty frontier (see {!Network.take_frontier}) — the caller must
    uphold the soundness condition ({!Network.dirty_step_sound}).  With
    [pool], a round that steps at least {!Network.par_cutoff} positions
    runs in parallel: K > 1 shards spread their read, commit and
    exchange phases one shard per slot; a lone shard, which has no
    ghosts and no peers, cuts its stepped set into equal slices per
    slot for the read and commit phases, so the work is balanced
    whatever the frontier's shape.  The commit phase stays sequential
    when a recorder is attached, to preserve telemetry byte order.
    Returns [true] if any state changed, or if link traffic is still in
    flight. *)

val rebalance : 'q t -> unit
(** Force a partition recut along current load quantiles (dead nodes
    weigh 0, dirty nodes 4, other live nodes 1).  Normally invoked by
    the [rebalance_every] policy; exposed for tests and tooling. *)

(** {1 Adversarial link layer} *)

val configure_link : 'q t -> seed:int -> Link.spec -> unit
(** Attach (or, with an inactive spec, detach) a {!Link} runtime: the
    exchange phase then routes every (src, dst) channel through the
    fault/retry pipeline instead of the direct drain, sequentially on
    one domain so the fault draws and telemetry stay deterministic at
    every (shards, domains) combination.  Late deliveries that change a
    ghost re-mark the ghost's neighbourhood dirty, so dirty-frontier
    scheduling stays sound under message delay.  [step] keeps returning
    [true] while any channel has traffic in flight, and any resync /
    restore / rebalance resets the channels (ghosts are refreshed from
    the authoritative flat states, making in-flight data redundant).
    With [target=cut] faults, bridge edges are computed here and
    remapped to shard pairs on every partition change. *)

val link_runtime : 'q t -> 'q Link.t option
(** The attached link runtime, for counters and degrade policies. *)

val resync : 'q t -> unit
(** Force a ghost refresh from the authoritative flat states (and reset
    the link channels).  Normally triggered automatically when
    {!Network.state_epoch} moves; exposed for recovery policies that
    repair channels without touching states ([Degrade_links]).  With a
    link runtime attached, every ghost the refresh changes re-marks its
    node's neighbourhood dirty: the dropped in-flight update would have
    done so on delivery. *)

(** {1 Checkpointing} *)

type 'q checkpoint

val checkpoint : 'q t -> 'q checkpoint
(** Checkpoint the underlying network (states, counters, graph liveness)
    plus the partition, per-shard ghosts and stepped counts, the round
    count and the link round. *)

val restore : 'q t -> 'q checkpoint -> unit
(** Restore network and shards, a pure function of the checkpoint.  If
    the partition moved since the checkpoint (a rebalance), the
    checkpoint's layout is rebuilt first; either way the checkpoint's
    ghosts are put back.  With a link runtime, the channels are then
    reset and every ghost that differs from the restored authority is
    refreshed and wakes its readers, as {!resync} does: its update may
    have been in flight at checkpoint time. *)

(** {1 Telemetry} *)

val messages : 'q t -> int
(** Cumulative cross-shard messages exchanged. *)

val exchange_share : 'q t -> float
(** The exchange phase's share of the read, commit and exchange phases'
    cumulative wall time, 0 before the first round — the communication
    overhead of the partition. *)

type shard_stats = {
  ss_id : int;
  ss_lo : int;
  ss_hi : int;  (** owned range [[ss_lo, ss_hi)] *)
  ss_ghosts : int;  (** remote-neighbour slots *)
  ss_stepped : int;  (** nodes stepped last round *)
  ss_transitions : int;  (** state changes last round *)
  ss_msgs_out : int;  (** cumulative messages sent *)
}

val shard_stats : 'q t -> shard_stats array
(** Per-shard occupancy and traffic, for the shard controller and CLI. *)
