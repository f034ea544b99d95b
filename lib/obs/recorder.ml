type enabled = {
  reg : Metrics.t;
  out : Events.sink;
  activation_events : bool;
  (* pre-fetched instruments: the hooks are the engine's hot path *)
  c_rounds : Metrics.counter;
  c_activations : Metrics.counter;
  c_transitions : Metrics.counter;
  c_faults : Metrics.counter;
  c_faults_noop : Metrics.counter;
  c_checkpoints : Metrics.counter;
  c_recoveries : Metrics.counter;
  c_frames : Metrics.counter;
  c_messages_dropped : Metrics.counter;
  c_retries : Metrics.counter;
  c_backpressure_stalls : Metrics.counter;
  c_evictions : Metrics.counter;
  h_activations_per_round : Metrics.histogram;
  h_view_size : Metrics.histogram;
  g_quiescence : Metrics.gauge;
  (* profiling layer — inert unless [timing] *)
  spans : Span.t;
  timeline : Timeline.t;
  timing : bool;
  h_round_ns : Metrics.histogram;
      (* registered in [reg] only when [timing]: a timing histogram in
         the default metrics document would break the cross-domain
         byte-identity the CI smoke checks rely on *)
  mutable round : int;
  mutable round_t0 : int;
  mutable activations_total : int;
  mutable activations_at_round_start : int;
  mutable transitions_total : int;
  mutable transitions_at_round_start : int;
  mutable faults_total : int;
  mutable faults_at_round_start : int;
  mutable recoveries_total : int;
  mutable recoveries_at_round_start : int;
  mutable frontier_latch : int;  (* -1 = no frontier latched this round *)
  mutable digest_ns_total : int;
  mutable digest_ns_at_round_start : int;
  mutable exchange_ns_total : int;
  mutable exchange_ns_at_round_start : int;
}

type t = Disabled | Enabled of enabled

let null = Disabled

let create ?(sink = Events.null) ?(activation_events = true)
    ?(spans = Span.null) ?(timeline = Timeline.null) () =
  let timing = Span.enabled spans || Timeline.enabled timeline in
  let reg = Metrics.create () in
  let h_round_ns =
    (* when not timing, park the instrument in a throwaway registry so
       the hot path needs no option check and the real document stays
       timing-free *)
    let target = if timing then reg else Metrics.create () in
    Metrics.histogram target ~bounds:Metrics.ns_bounds "round_ns"
  in
  Enabled
    {
      reg;
      out = sink;
      activation_events;
      c_rounds = Metrics.counter reg "rounds";
      c_activations = Metrics.counter reg "activations";
      c_transitions = Metrics.counter reg "state_transitions";
      c_faults = Metrics.counter reg "faults";
      c_faults_noop = Metrics.counter reg "faults_noop";
      c_checkpoints = Metrics.counter reg "checkpoints";
      c_recoveries = Metrics.counter reg "recoveries";
      c_frames = Metrics.counter reg "frames";
      (* link-layer and serve-resilience counters: registered
         unconditionally — they read 0 on fault-free runs in both flat
         and sharded execution, so the cross-runtime byte-identity of
         the metrics document is preserved *)
      c_messages_dropped = Metrics.counter reg "messages_dropped";
      c_retries = Metrics.counter reg "retries";
      c_backpressure_stalls = Metrics.counter reg "backpressure_stalls";
      c_evictions = Metrics.counter reg "client_evictions";
      h_activations_per_round = Metrics.histogram reg "activations_per_round";
      h_view_size =
        Metrics.histogram reg "view_size"
          ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |];
      g_quiescence = Metrics.gauge reg "rounds_to_quiescence";
      spans;
      timeline;
      timing;
      h_round_ns;
      round = 0;
      round_t0 = 0;
      activations_total = 0;
      activations_at_round_start = 0;
      transitions_total = 0;
      transitions_at_round_start = 0;
      faults_total = 0;
      faults_at_round_start = 0;
      recoveries_total = 0;
      recoveries_at_round_start = 0;
      frontier_latch = -1;
      digest_ns_total = 0;
      digest_ns_at_round_start = 0;
      exchange_ns_total = 0;
      exchange_ns_at_round_start = 0;
    }

let enabled = function Disabled -> false | Enabled _ -> true
let metrics = function Disabled -> None | Enabled e -> Some e.reg
let snapshot = function Disabled -> None | Enabled e -> Some (Metrics.snapshot e.reg)
let sink = function Disabled -> Events.null | Enabled e -> e.out
let close = function Disabled -> () | Enabled e -> Events.close e.out
let spans = function Disabled -> Span.null | Enabled e -> e.spans
let timeline = function Disabled -> Timeline.null | Enabled e -> e.timeline
let round = function Disabled -> 0 | Enabled e -> e.round

let frontier t ~size =
  match t with Disabled -> () | Enabled e -> e.frontier_latch <- size

let digest_ns t ~ns =
  match t with
  | Disabled -> ()
  | Enabled e -> e.digest_ns_total <- e.digest_ns_total + ns

let exchange_ns t ~ns =
  match t with
  | Disabled -> ()
  | Enabled e -> e.exchange_ns_total <- e.exchange_ns_total + ns

let run_start t ~nodes ~edges ~scheduler =
  match t with
  | Disabled -> ()
  | Enabled e -> Events.emit e.out (Events.Run_start { nodes; edges; scheduler })

let round_start t ~round =
  match t with
  | Disabled -> ()
  | Enabled e ->
      e.round <- round;
      e.activations_at_round_start <- e.activations_total;
      e.transitions_at_round_start <- e.transitions_total;
      e.faults_at_round_start <- e.faults_total;
      e.recoveries_at_round_start <- e.recoveries_total;
      e.frontier_latch <- -1;
      e.digest_ns_at_round_start <- e.digest_ns_total;
      e.exchange_ns_at_round_start <- e.exchange_ns_total;
      if e.timing then e.round_t0 <- Clock.now_ns ();
      Events.emit e.out (Events.Round_start { round })

let round_end t ~round ~changed =
  match t with
  | Disabled -> ()
  | Enabled e ->
      let activations = e.activations_total - e.activations_at_round_start in
      Metrics.incr e.c_rounds;
      Metrics.observe e.h_activations_per_round activations;
      if e.timing then begin
        let wall_ns = Clock.now_ns () - e.round_t0 in
        Metrics.observe e.h_round_ns wall_ns;
        Span.record e.spans Span.Round ~shard:0 ~round ~t0:e.round_t0;
        Timeline.record e.timeline ~round ~wall_ns ~activations
          ~transitions:(e.transitions_total - e.transitions_at_round_start)
          ~frontier:
            (if e.frontier_latch >= 0 then e.frontier_latch else activations)
          ~faults:(e.faults_total - e.faults_at_round_start)
          ~recoveries:(e.recoveries_total - e.recoveries_at_round_start)
          ~digest_ns:(e.digest_ns_total - e.digest_ns_at_round_start)
          ~exchange_ns:(e.exchange_ns_total - e.exchange_ns_at_round_start)
      end;
      Events.emit e.out (Events.Round_end { round; activations; changed })

let activation t ~node ~view_size ~changed =
  match t with
  | Disabled -> ()
  | Enabled e ->
      e.activations_total <- e.activations_total + 1;
      Metrics.incr e.c_activations;
      Metrics.observe e.h_view_size view_size;
      if changed then begin
        Metrics.incr e.c_transitions;
        e.transitions_total <- e.transitions_total + 1
      end;
      if e.activation_events && not (Events.is_null e.out) then begin
        Events.emit e.out
          (Events.Activation { round = e.round; node; view_size; changed });
        if changed then Events.emit e.out (Events.Transition { round = e.round; node })
      end

let fault ?(effective = true) t ~action =
  match t with
  | Disabled -> ()
  | Enabled e ->
      if effective then begin
        Metrics.incr e.c_faults;
        e.faults_total <- e.faults_total + 1;
        Events.emit e.out (Events.Fault { round = e.round; action })
      end
      else begin
        Metrics.incr e.c_faults_noop;
        Events.emit e.out (Events.Fault_noop { round = e.round; action })
      end

let link_drop t ~src ~dst ~kind =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_messages_dropped;
      Events.emit e.out (Events.Link_drop { round = e.round; src; dst; kind })

let link_retry t ~src ~dst ~seq =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_retries;
      Events.emit e.out (Events.Link_retry { round = e.round; src; dst; seq })

let backpressure_stall t =
  match t with
  | Disabled -> ()
  | Enabled e -> Metrics.incr e.c_backpressure_stalls

let evict_client t ~reason =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_evictions;
      Events.emit e.out (Events.Evict_client { round = e.round; reason })

let checkpoint t ~round =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_checkpoints;
      Events.emit e.out (Events.Checkpoint { round })

let recovery t ~round ~attempt ~action =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_recoveries;
      e.recoveries_total <- e.recoveries_total + 1;
      Events.emit e.out (Events.Recovery { round; attempt; action })

let frame t ~line =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Metrics.incr e.c_frames;
      Events.emit e.out (Events.Frame { round = e.round; line })

let run_end t ~round ~reason =
  match t with
  | Disabled -> ()
  | Enabled e ->
      if reason = "quiesced" then Metrics.set e.g_quiescence (float_of_int round);
      Events.emit e.out
        (Events.Run_end
           {
             round;
             activations = e.activations_total;
             reason;
             spans_dropped = Span.dropped e.spans;
           })
