(** The telemetry hook the engine threads through a run.

    A recorder bundles a {!Metrics} registry and an {!Events} sink behind
    the hook functions the engine calls ([activation], [round_end], ...).
    {!null} is the disabled recorder: every hook on it is a single tag
    check and returns immediately, so uninstrumented runs pay nothing
    measurable.

    Round numbers are threaded implicitly: {!round_start} latches the
    current round so per-activation hooks (called from
    {!Symnet_engine.Network}, which has no round concept) can stamp their
    events without the engine passing the round everywhere.

    Metrics maintained on an enabled recorder:
    - counters [rounds], [activations], [state_transitions], [faults],
      [faults_noop], [checkpoints], [recoveries], [frames];
    - histograms [activations_per_round], [view_size], and — only when
      timing is on — [round_ns] (bounds {!Metrics.ns_bounds});
    - gauge [rounds_to_quiescence] (set by {!run_end} when the reason is
      ["quiesced"]).

    Profiling is layered on top and opt-in: pass a live {!Span}
    collector and/or {!Timeline} to [create] and the recorder times each
    round on the monotonic clock, records a [Round] span, appends a
    timeline row, and registers the [round_ns] histogram.  Timing data
    never enters the {!Events} stream, so enabling it cannot perturb
    trace-byte determinism across domain counts. *)

type t

val null : t
(** The disabled recorder; all hooks are no-ops. *)

val create :
  ?sink:Events.sink ->
  ?activation_events:bool ->
  ?spans:Span.t ->
  ?timeline:Timeline.t ->
  unit ->
  t
(** An enabled recorder.  [sink] (default {!Events.null}) receives the
    event stream; [activation_events] (default [true]) controls whether
    per-activation/per-transition events are emitted to the sink —
    metrics record them regardless.  Disable it for long runs where only
    round-level records are wanted in the trace.

    [spans] (default {!Span.null}) collects phase spans — the recorder
    contributes [Round] spans and the engine/runner contribute
    read/merge/commit/fault/checkpoint/recovery spans via {!spans}.
    [timeline] (default {!Timeline.null}) receives one row per round.
    Timing — the per-round clock reads and the [round_ns] histogram —
    is on exactly when [spans] or [timeline] is enabled. *)

val enabled : t -> bool
val metrics : t -> Metrics.t option
(** [None] on {!null}. *)

val snapshot : t -> Metrics.snapshot option
(** [None] on {!null}. *)

val sink : t -> Events.sink
(** {!Events.null} on {!null}. *)

val close : t -> unit
(** Close the underlying sink; idempotent. *)

val spans : t -> Span.t
(** The attached span collector ({!Span.null} on {!null} or when none
    was attached) — the engine brackets phase work against it. *)

val timeline : t -> Timeline.t
(** The attached timeline ({!Timeline.null} when absent). *)

val round : t -> int
(** The round latched by the last {!round_start} ([0] on {!null});
    lets the engine stamp spans without threading the round number. *)

(** {1 Engine hooks} *)

val run_start : t -> nodes:int -> edges:int -> scheduler:string -> unit
val round_start : t -> round:int -> unit
val round_end : t -> round:int -> changed:bool -> unit
(** Computes the round's activation count as the delta since the matching
    {!round_start}. *)

val activation : t -> node:int -> view_size:int -> changed:bool -> unit

val frontier : t -> size:int -> unit
(** Latch the dirty-frontier size (nodes stepped) for the current round;
    the timeline row falls back to the activation count when no frontier
    was latched (naive scheduling). *)

val digest_ns : t -> ns:int -> unit
(** Accrue time spent in the view-digest cache (update + query phases);
    the timeline row records the delta accrued during its round.  The
    engine calls this alongside the [Digest_update]/[Digest_query] span
    records. *)

val exchange_ns : t -> ns:int -> unit
(** Accrue time spent draining cross-shard message queues; the timeline
    row records the delta accrued during its round.  The sharded runtime
    calls this alongside its [Shard_exchange] span records. *)

val link_drop : t -> src:int -> dst:int -> kind:string -> unit
(** The link layer faulted a message on the (src, dst) shard channel;
    increments [messages_dropped] and emits {!Events.Link_drop}. *)

val link_retry : t -> src:int -> dst:int -> seq:int -> unit
(** The reliable exchange retransmitted [seq] on (src, dst); increments
    [retries] and emits {!Events.Link_retry}. *)

val backpressure_stall : t -> unit
(** A channel's in-flight cap deferred traffic this round; increments
    [backpressure_stalls] (metric only — no event, it can fire every
    round under sustained pressure). *)

val evict_client : t -> reason:string -> unit
(** The serve daemon evicted a connection; increments [client_evictions]
    and emits {!Events.Evict_client}. *)

val fault : ?effective:bool -> t -> action:Events.fault_action -> unit
(** With [~effective:false] (default [true]) the fault was a no-op —
    recorded under the [faults_noop] counter and emitted as a
    {!Events.Fault_noop} warning record instead of a fault. *)

val checkpoint : t -> round:int -> unit
val recovery : t -> round:int -> attempt:int -> action:string -> unit
val frame : t -> line:string -> unit
val run_end : t -> round:int -> reason:string -> unit
