(** Allocation-free phase timing spans over a preallocated ring buffer.

    A span is one timed interval of engine work — a whole round, the
    read phase or one shard of it, the commit sweep, fault application,
    a checkpoint copy or a recovery — stamped with the shard and round
    it belongs to.

    The collector is built for the engine's hot path:
    - {!record} on a disabled collector ({!null}) is a single tag check;
    - on an enabled collector it is two clock reads and five int-array
      stores — no heap allocation, so profiling does not disturb the
      words/activation numbers it is used to regress;
    - the cursor is an [Atomic.t] claimed with [fetch_and_add], so worker
      domains can record read-shard spans concurrently without locks.

    Capacity is fixed at creation.  When the ring wraps, the oldest
    spans are overwritten (keep-last semantics) and {!dropped} counts the
    overwritten ones, so a bounded collector can profile an unbounded
    run and keep the tail. *)

type phase =
  | Round  (** one full synchronous round (read + commit) *)
  | Read  (** the read phase of a flat (one-shard) round *)
  | Commit  (** the sequential commit sweep *)
  | Fault_apply  (** applying due faults / chaos actions / restarts *)
  | Checkpoint  (** copying network state into a checkpoint *)
  | Recovery  (** a recovery action (restore / reseed / degrade) *)
  | Digest_update
      (** refreshing the incremental view-digest cache (segment-tree
          updates for changed neighbour states) before a digest round *)
  | Digest_query
      (** the digest round's read phase: per-node root-summary queries
          replacing the O(deg) view rescan *)
  | Shard_read
      (** one shard's local read/step phase in the sharded runtime
          ([shard] = shard id, not domain slot) *)
  | Shard_exchange
      (** draining one shard's cross-shard inboxes into its ghost
          buffers during the exchange phase ([shard] = shard id) *)
  | Link_exchange
      (** the adversarial link layer processing one destination's
          channels — fault injection, retransmits, in-order delivery
          ([shard] = destination shard id) *)
  | Serve_snapshot
      (** the serve daemon taking a consistent read snapshot of the
          resident network between rounds *)
  | Serve_request
      (** the serve daemon answering one client request (decode, query
          evaluation against the snapshot, encode) *)
  | Frontier
      (** taking a dirty round's frontier: draining and sorting the
          dirty worklist (or rescanning the flags when it is invalid),
          and in the sharded runtime handing each shard its slice *)
  | Shard_resync
      (** the sharded runtime refreshing the shards' ghosts from the
          flat states after an external state write *)

val phase_name : phase -> string
(** Stable lower-snake name, used as the Chrome-trace event name. *)

type t

val null : t
(** The disabled collector: {!record} is a no-op, {!now} returns [0],
    {!spans} is empty.  This is what a default recorder carries. *)

val create : ?capacity:int -> unit -> t
(** An enabled collector holding the last [capacity] spans (default
    65536).  Raises [Invalid_argument] if [capacity < 1]. *)

val enabled : t -> bool

val now : t -> int
(** Monotonic nanoseconds if enabled, [0] if disabled.  Callers bracket
    work as [let t0 = now sp in ... ; record sp phase ~shard ~round ~t0]
    so the disabled path never touches the clock. *)

val record : t -> phase -> shard:int -> round:int -> t0:int -> unit
(** Close a span opened at [t0] (a {!now} reading) ending now. *)

val recorded : t -> int
(** Total spans ever recorded (including overwritten ones). *)

val dropped : t -> int
(** Spans overwritten by ring wrap, = [max 0 (recorded - capacity)]. *)

val capacity : t -> int
(** Ring capacity; [0] when disabled. *)

type span = {
  phase : phase;
  shard : int;
  round : int;
  t0_ns : int;  (** start, monotonic clock *)
  dur_ns : int;
}

val spans : t -> span list
(** Retained spans, oldest first.  Not safe to call concurrently with
    {!record} from other domains; the engine reads it post-run. *)

val origin_ns : t -> int
(** Clock reading at creation; Chrome-trace timestamps are relative to
    this so traces start near t=0. *)

val chrome_json : t -> Jsonx.t
(** The retained spans as a Chrome trace-event document
    ([{"traceEvents": [...]}], complete-event [ph:"X"] records with
    microsecond [ts]/[dur], [tid] = shard) plus thread-name metadata —
    loadable in chrome://tracing or https://ui.perfetto.dev. *)
