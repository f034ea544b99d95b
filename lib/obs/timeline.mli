(** Per-round timeline: one row per synchronous round.

    Where {!Span} answers "where inside a round does time go", the
    timeline answers "how does the run evolve round over round": wall
    nanoseconds, activations, state transitions, dirty-frontier size,
    faults and recoveries, stored as growable columnar int series (one
    store per column per round — nothing per activation).

    Rows serialise to JSONL (one JSON object per row) for
    [symnet profile --timeline-out] and read back for
    [symnet stats --timeline]; {!series} re-exposes the columns for
    {!Stats.of_series} percentile summaries. *)

type t

type row = {
  round : int;
  wall_ns : int;  (** round wall-clock, monotonic ns *)
  activations : int;
  transitions : int;
  frontier : int;
      (** dirty-frontier nodes stepped this round; equals [activations]
          on naive (non-dirty) rounds where no frontier is latched *)
  faults : int;  (** effective faults applied during the round *)
  recoveries : int;  (** recovery actions taken during the round *)
  digest_ns : int;
      (** ns spent refreshing/querying the incremental view-digest cache
          this round ({!Span.phase}[ Digest_update]/[Digest_query]); [0]
          on non-digest rounds and in timelines recorded before the
          digest backend existed *)
  exchange_ns : int;
      (** ns spent draining cross-shard message queues this round
          ({!Span.phase}[ Shard_exchange]); [0] on flat-engine rounds
          and in timelines recorded before the sharded runtime existed *)
}

val null : t
(** Disabled timeline: {!record} is a no-op, {!rows} is empty. *)

val create : ?capacity:int -> unit -> t
(** Enabled timeline; [capacity] (default 1024) is the initial column
    size, grown by doubling.  Raises [Invalid_argument] if < 1. *)

val enabled : t -> bool

val record :
  t ->
  round:int ->
  wall_ns:int ->
  activations:int ->
  transitions:int ->
  frontier:int ->
  faults:int ->
  recoveries:int ->
  digest_ns:int ->
  exchange_ns:int ->
  unit

val length : t -> int
val rows : t -> row list

(** {1 Serialisation} *)

val row_of_json : Jsonx.t -> (row, string) result

val to_jsonl : t -> string
(** One compact JSON object per line, newline-terminated; empty string
    for an empty or disabled timeline. *)

val read_lines : in_channel -> (row list, string) result
(** Parse a JSONL timeline (blank lines skipped); [Error] names the
    first offending line. *)

val series : row list -> (string * float array) list
(** Columns as named float series ([round_ns], [activations],
    [transitions], [frontier], [faults], [recoveries], [digest_ns],
    [exchange_ns]) for {!Stats.of_series}. *)
