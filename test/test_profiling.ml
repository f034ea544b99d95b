(* The profiling layer: span ring semantics (wrap, overflow, Chrome
   export), timeline JSONL round-trips, the perf-regression comparator's
   edge cases, monotonic timers, χ-critical chaos targeting — and the
   load-bearing property that turning profiling on leaves event traces
   byte-identical at every domain count. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Fault = Symnet_engine.Fault
module Obs = Symnet_obs
module Span = Symnet_obs.Span
module Timeline = Symnet_obs.Timeline
module Regress = Symnet_obs.Regress
module Jsonx = Symnet_obs.Jsonx
module A = Symnet_algorithms

(* --- spans ------------------------------------------------------------ *)

let test_span_disabled () =
  let sp = Span.null in
  Alcotest.(check bool) "disabled" false (Span.enabled sp);
  Alcotest.(check int) "now is 0" 0 (Span.now sp);
  Span.record sp Span.Round ~shard:0 ~round:1 ~t0:0;
  Alcotest.(check int) "record is a no-op" 0 (Span.recorded sp);
  Alcotest.(check int) "no capacity" 0 (Span.capacity sp);
  Alcotest.(check int) "nothing dropped" 0 (Span.dropped sp);
  Alcotest.(check (list reject)) "no spans" [] (Span.spans sp)

let test_span_records () =
  let sp = Span.create ~capacity:16 () in
  Alcotest.(check bool) "enabled" true (Span.enabled sp);
  let t0 = Span.now sp in
  Alcotest.(check bool) "clock past origin" true (t0 >= Span.origin_ns sp);
  Span.record sp Span.Read ~shard:2 ~round:7 ~t0;
  Span.record sp Span.Commit ~shard:0 ~round:7 ~t0;
  Alcotest.(check int) "two recorded" 2 (Span.recorded sp);
  Alcotest.(check int) "none dropped" 0 (Span.dropped sp);
  match Span.spans sp with
  | [ a; b ] ->
      Alcotest.(check string) "first phase" "read" (Span.phase_name a.Span.phase);
      Alcotest.(check int) "first shard" 2 a.Span.shard;
      Alcotest.(check int) "first round" 7 a.Span.round;
      Alcotest.(check bool) "duration non-negative" true (a.Span.dur_ns >= 0);
      Alcotest.(check string) "second phase" "commit"
        (Span.phase_name b.Span.phase)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l))

let test_span_ring_wrap () =
  (* capacity 4, 7 records: keep-last semantics retain the newest 4
     (rounds 3..6, oldest first) and count the 3 overwritten. *)
  let sp = Span.create ~capacity:4 () in
  for r = 0 to 6 do
    Span.record sp Span.Round ~shard:0 ~round:r ~t0:(Span.now sp)
  done;
  Alcotest.(check int) "recorded counts all" 7 (Span.recorded sp);
  Alcotest.(check int) "dropped = recorded - capacity" 3 (Span.dropped sp);
  let rounds = List.map (fun s -> s.Span.round) (Span.spans sp) in
  Alcotest.(check (list int)) "newest retained, oldest first" [ 3; 4; 5; 6 ]
    rounds

let test_span_capacity_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Span.create: capacity must be >= 1") (fun () ->
      ignore (Span.create ~capacity:0 ()))

let test_chrome_json_valid () =
  let sp = Span.create ~capacity:8 () in
  Span.record sp Span.Round ~shard:0 ~round:1 ~t0:(Span.now sp);
  Span.record sp Span.Read ~shard:1 ~round:1 ~t0:(Span.now sp);
  let doc = Span.chrome_json sp in
  match Jsonx.of_string (Jsonx.to_string doc) with
  | Error e -> Alcotest.fail ("chrome trace does not reparse: " ^ e)
  | Ok doc -> (
      match Jsonx.member "traceEvents" doc with
      | Some (Jsonx.List events) ->
          let names =
            List.filter_map
              (fun e ->
                Option.bind (Jsonx.member "name" e) Jsonx.to_str)
              events
          in
          Alcotest.(check bool) "round event present" true
            (List.mem "round" names);
          Alcotest.(check bool) "read event present" true
            (List.mem "read" names);
          (* complete events carry ph:"X" and non-negative µs stamps *)
          List.iter
            (fun e ->
              match Option.bind (Jsonx.member "ph" e) Jsonx.to_str with
              | Some "X" ->
                  let ts =
                    Option.bind (Jsonx.member "ts" e) Jsonx.to_float
                  in
                  Alcotest.(check bool) "ts >= 0" true
                    (match ts with Some t -> t >= 0. | None -> false)
              | _ -> ())
            events
      | _ -> Alcotest.fail "no traceEvents list")

(* --- timeline --------------------------------------------------------- *)

let mk_row i =
  {
    Timeline.round = i;
    wall_ns = 1000 * (i + 1);
    activations = 10 * i;
    transitions = 5 * i;
    frontier = 3 * i;
    faults = i mod 2;
    recoveries = i mod 3;
    digest_ns = 100 * i;
    exchange_ns = 10 * i;
  }

let test_timeline_disabled () =
  let t = Timeline.null in
  Alcotest.(check bool) "disabled" false (Timeline.enabled t);
  Timeline.record t ~round:1 ~wall_ns:5 ~activations:1 ~transitions:1
    ~frontier:1 ~faults:0 ~recoveries:0 ~digest_ns:0 ~exchange_ns:0;
  Alcotest.(check int) "record is a no-op" 0 (Timeline.length t);
  Alcotest.(check string) "empty jsonl" "" (Timeline.to_jsonl t)

let test_timeline_growth () =
  (* initial capacity 2, 5 rows: the columns double behind the scenes
     and every row survives in order. *)
  let t = Timeline.create ~capacity:2 () in
  let rows = List.init 5 mk_row in
  List.iter
    (fun (r : Timeline.row) ->
      Timeline.record t ~round:r.round ~wall_ns:r.wall_ns
        ~activations:r.activations ~transitions:r.transitions
        ~frontier:r.frontier ~faults:r.faults ~recoveries:r.recoveries
        ~digest_ns:r.digest_ns ~exchange_ns:r.exchange_ns)
    rows;
  Alcotest.(check int) "all rows kept" 5 (Timeline.length t);
  Alcotest.(check bool) "rows in order" true (Timeline.rows t = rows)

let test_timeline_jsonl_roundtrip () =
  let t = Timeline.create () in
  let rows = List.init 4 mk_row in
  List.iter
    (fun (r : Timeline.row) ->
      Timeline.record t ~round:r.round ~wall_ns:r.wall_ns
        ~activations:r.activations ~transitions:r.transitions
        ~frontier:r.frontier ~faults:r.faults ~recoveries:r.recoveries
        ~digest_ns:r.digest_ns ~exchange_ns:r.exchange_ns)
    rows;
  let path = Filename.temp_file "symnet_timeline" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Timeline.to_jsonl t));
  let back =
    In_channel.with_open_text path (fun ic ->
        match Timeline.read_lines ic with
        | Ok rows -> rows
        | Error e -> Alcotest.fail e)
  in
  Sys.remove path;
  Alcotest.(check bool) "rows round-trip" true (back = rows)

let test_timeline_rejects_bad_row () =
  (match Timeline.row_of_json (Jsonx.Obj [ ("round", Jsonx.Int 1) ]) with
  | Ok _ -> Alcotest.fail "accepted a row missing most fields"
  | Error _ -> ());
  match Timeline.row_of_json (Jsonx.String "nope") with
  | Ok _ -> Alcotest.fail "accepted a non-object"
  | Error _ -> ()

let test_timeline_series () =
  let rows = List.init 3 mk_row in
  let series = Timeline.series rows in
  let col name = List.assoc name series in
  Alcotest.(check int) "eight series" 8 (List.length series);
  Alcotest.(check bool) "round_ns column" true
    (col "round_ns" = [| 1000.; 2000.; 3000. |]);
  Alcotest.(check bool) "frontier column" true
    (col "frontier" = [| 0.; 3.; 6. |]);
  (* the Stats bridge summarises without blowing up *)
  let summaries = Obs.Stats.of_series series in
  Alcotest.(check int) "one summary per series" 8 (List.length summaries)

(* --- regression comparator -------------------------------------------- *)

let sample w ns words =
  Jsonx.Obj
    [
      ("workload", Jsonx.String w);
      ("ns_per_activation", Jsonx.Float ns);
      ("words_per_activation", Jsonx.Float words);
    ]

let par w d rps =
  Jsonx.Obj
    [
      ("workload", Jsonx.String w);
      ("domains", Jsonx.Int d);
      ("rounds_per_sec", Jsonx.Float rps);
    ]

let doc ?(smoke = true) samples parallel =
  Jsonx.Obj
    [
      ("suite", Jsonx.String "engine");
      ("smoke", Jsonx.Bool smoke);
      ("samples", Jsonx.List samples);
      ("parallel", Jsonx.List parallel);
    ]

let compare_ok ?tolerance_pct ?words_slack ~baseline ~fresh () =
  match Regress.compare_docs ?tolerance_pct ?words_slack ~baseline ~fresh () with
  | Ok checks -> checks
  | Error e -> Alcotest.fail ("comparator errored: " ^ e)

let test_regress_identical_passes () =
  let d = doc [ sample "a" 100. 5. ] [ par "a" 2 1000. ] in
  let checks = compare_ok ~baseline:d ~fresh:d () in
  Alcotest.(check int) "three checks" 3 (List.length checks);
  Alcotest.(check int) "none failing" 0 (List.length (Regress.failing checks))

let test_regress_slowdown_and_boundary () =
  let base = doc [ sample "a" 100. 5. ] [] in
  let fresh = doc [ sample "a" 200. 5. ] [] in
  (* +100% fails at the default 50% tolerance... *)
  let checks = compare_ok ~baseline:base ~fresh () in
  Alcotest.(check int) "2x slowdown regresses" 1
    (List.length (Regress.failing checks));
  (* ...but the bound is strict: change == tolerance passes. *)
  let checks = compare_ok ~tolerance_pct:100. ~baseline:base ~fresh () in
  Alcotest.(check int) "exact boundary passes" 0
    (List.length (Regress.failing checks))

let test_regress_missing_and_new () =
  let base = doc [ sample "a" 100. 5.; sample "gone" 50. 1. ] [] in
  let fresh = doc [ sample "a" 100. 5.; sample "novel" 70. 2. ] [] in
  let checks = compare_ok ~baseline:base ~fresh () in
  let verdict_of w m =
    (List.find (fun c -> c.Regress.workload = w && c.Regress.metric = m) checks)
      .Regress.verdict
  in
  Alcotest.(check bool) "dropped workload fails" true
    (verdict_of "gone" "ns_per_activation" = Regress.Missing_fresh);
  Alcotest.(check bool) "new workload passes" true
    (verdict_of "novel" "ns_per_activation" = Regress.New_only);
  (* two Missing_fresh rows (ns + words) fail the gate; New_only doesn't *)
  Alcotest.(check int) "failing count" 2 (List.length (Regress.failing checks))

let test_regress_zero_baseline () =
  (* a zero ns baseline that grew is an infinite regression; one that
     stayed zero passes. *)
  let base = doc [ sample "a" 0. 0. ] [] in
  let fresh = doc [ sample "a" 10. 0. ] [] in
  let checks = compare_ok ~baseline:base ~fresh () in
  let ns =
    List.find (fun c -> c.Regress.metric = "ns_per_activation") checks
  in
  Alcotest.(check bool) "infinite change" true (ns.Regress.change_pct = infinity);
  Alcotest.(check bool) "regressed" true (ns.Regress.verdict = Regress.Regressed);
  let same = compare_ok ~baseline:base ~fresh:base () in
  Alcotest.(check int) "zero vs zero passes" 0
    (List.length (Regress.failing same))

let test_regress_words_slack () =
  (* a zero-allocation baseline tolerates [words_slack] absolute words of
     noise, but a real allocation regression still trips. *)
  let base = doc [ sample "a" 100. 0. ] [] in
  let noise = doc [ sample "a" 100. 5. ] [] in
  let checks = compare_ok ~baseline:base ~fresh:noise () in
  Alcotest.(check int) "5 words of noise pass" 0
    (List.length (Regress.failing checks));
  let real = doc [ sample "a" 100. 20. ] [] in
  let checks = compare_ok ~baseline:base ~fresh:real () in
  Alcotest.(check int) "20 words regress" 1
    (List.length (Regress.failing checks))

let test_regress_throughput_drop () =
  let base = doc [] [ par "a" 4 1000. ] in
  let fresh = doc [] [ par "a" 4 400. ] in
  (* -60% rounds/sec fails at 50% tolerance *)
  let checks = compare_ok ~baseline:base ~fresh () in
  Alcotest.(check int) "throughput drop regresses" 1
    (List.length (Regress.failing checks));
  (* rounds/sec at different domain counts never cross-compare *)
  let other = doc [] [ par "a" 2 400. ] in
  let checks = compare_ok ~baseline:base ~fresh:other () in
  let c = List.hd (Regress.failing checks) in
  Alcotest.(check string) "d4 row went missing" "rounds_per_sec@d4"
    c.Regress.metric

let test_regress_malformed_docs () =
  let good = doc [ sample "a" 100. 5. ] [] in
  (match
     Regress.compare_docs ~baseline:(Jsonx.Obj [])
       ~fresh:good ()
   with
  | Ok _ -> Alcotest.fail "accepted a suite-less baseline"
  | Error _ -> ());
  (match
     Regress.compare_docs ~baseline:good
       ~fresh:(doc ~smoke:false [ sample "a" 100. 5. ] [])
       ()
   with
  | Ok _ -> Alcotest.fail "accepted a smoke-flag mismatch"
  | Error _ -> ());
  match
    Regress.compare_docs ~baseline:good
      ~fresh:
        (Jsonx.Obj
           [ ("suite", Jsonx.String "engine"); ("smoke", Jsonx.Bool true) ])
      ()
  with
  | Ok _ -> Alcotest.fail "accepted a samples-less document"
  | Error _ -> ()

let test_regress_inject_self_test () =
  (* the CI gate's self-test: a document compared against its own 2x
     injected slowdown must fail, and the injection touches only the
     timing fields. *)
  let d = doc [ sample "a" 100. 5. ] [ par "a" 2 1000. ] in
  let slow = Regress.inject_slowdown ~factor:2. d in
  let checks = compare_ok ~baseline:d ~fresh:slow () in
  Alcotest.(check bool) "injected slowdown fails" true
    (Regress.failing checks <> []);
  let words =
    List.find (fun c -> c.Regress.metric = "words_per_activation") checks
  in
  Alcotest.(check (float 1e-9)) "words untouched" 5. words.Regress.fresh

(* --- timers and the round_ns histogram -------------------------------- *)

let test_metrics_timer () =
  let t = Obs.Metrics.timer_start () in
  let x = ref 0 in
  for i = 1 to 1000 do x := !x + i done;
  ignore !x;
  Alcotest.(check bool) "elapsed non-negative" true
    (Obs.Metrics.timer_elapsed_ns t >= 0);
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "round_ns" ~bounds:Obs.Metrics.ns_bounds in
  Obs.Metrics.observe_since h t;
  let snap = Obs.Metrics.snapshot reg in
  match snap.Obs.Metrics.histograms with
  | [ ("round_ns", hs) ] ->
      Alcotest.(check int) "one observation" 1 hs.Obs.Metrics.count
  | _ -> Alcotest.fail "expected the round_ns histogram"

let has_round_ns recorder =
  match Obs.Recorder.snapshot recorder with
  | None -> false
  | Some snap -> List.mem_assoc "round_ns" snap.Obs.Metrics.histograms

let test_round_ns_gated_by_timing () =
  (* the histogram exists iff timing is on — a default recorder's
     metrics document must stay byte-comparable across domain counts,
     so no timing data may leak into it. *)
  Alcotest.(check bool) "absent by default" false
    (has_round_ns (Obs.Recorder.create ()));
  Alcotest.(check bool) "present with spans" true
    (has_round_ns (Obs.Recorder.create ~spans:(Span.create ()) ()));
  Alcotest.(check bool) "present with a timeline" true
    (has_round_ns (Obs.Recorder.create ~timeline:(Timeline.create ()) ()))

(* --- profiled runs ---------------------------------------------------- *)

let sp_automaton n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n

let test_profiled_run_populates () =
  let g = Gen.grid ~rows:6 ~cols:6 in
  let spans = Span.create () in
  let timeline = Timeline.create () in
  let recorder = Obs.Recorder.create ~spans ~timeline () in
  let net = Network.init ~rng:(Prng.create ~seed:11) g (sp_automaton 36) in
  let o = Runner.run ~max_rounds:100 ~recorder net in
  Obs.Recorder.close recorder;
  let phases =
    List.sort_uniq compare
      (List.map (fun s -> Span.phase_name s.Span.phase) (Span.spans spans))
  in
  Alcotest.(check bool) "round spans" true (List.mem "round" phases);
  Alcotest.(check bool) "read spans" true (List.mem "read" phases);
  Alcotest.(check bool) "commit spans" true (List.mem "commit" phases);
  let round_spans =
    List.filter (fun s -> s.Span.phase = Span.Round) (Span.spans spans)
  in
  Alcotest.(check int) "one round span per round" o.Runner.rounds
    (List.length round_spans);
  Alcotest.(check int) "one timeline row per round" o.Runner.rounds
    (Timeline.length timeline);
  let acts =
    List.fold_left
      (fun acc (r : Timeline.row) -> acc + r.Timeline.activations)
      0 (Timeline.rows timeline)
  in
  Alcotest.(check int) "timeline activations sum to outcome"
    o.Runner.activations acts

let prop_profiling_preserves_trace_bytes =
  (* the load-bearing determinism property: a run profiled with spans +
     timeline produces the same outcome and the byte-identical event
     trace as an unprofiled run, at every domain count, under chaos. *)
  QCheck.Test.make
    ~name:"profiling leaves event traces byte-identical (domains 1/2/4)"
    ~count:10
    QCheck.(triple (int_range 3 40) (int_range 0 40) (int_range 1 1000))
    (fun (n, extra, seed) ->
      let g =
        Gen.random_connected (Prng.create ~seed:(n + (131 * extra))) ~n
          ~extra_edges:extra
      in
      let run ~profiled domains =
        let g = Graph.copy g in
        let chaos =
          Chaos.create ~seed
            [
              Chaos.Burst
                { at = 2; width = 2; count = 1; kind = Chaos.Corrupt;
                  target = Chaos.Uniform };
              Chaos.Bernoulli
                { p = 0.1; kind = Chaos.Kill_edge; target = Chaos.Uniform };
            ]
        in
        let buf = Buffer.create 1024 in
        let recorder =
          if profiled then
            Obs.Recorder.create ~sink:(Obs.Events.buffer buf)
              ~spans:(Span.create ()) ~timeline:(Timeline.create ()) ()
          else Obs.Recorder.create ~sink:(Obs.Events.buffer buf) ()
        in
        let net = Network.init ~rng:(Prng.create ~seed) g (sp_automaton n) in
        let o = Runner.run ~chaos ~max_rounds:30 ~recorder ~domains net in
        Obs.Recorder.close recorder;
        ( o.Runner.rounds, o.Runner.activations, o.Runner.transitions,
          o.Runner.faults_applied, Network.states net, Buffer.contents buf )
      in
      let plain = run ~profiled:false 1 in
      List.for_all
        (fun domains -> run ~profiled:true domains = plain)
        [ 1; 2; 4 ])

(* --- χ-critical chaos targeting --------------------------------------- *)

let test_critical_spec_needs_provider () =
  (match Chaos.of_spec ~seed:1 "burst:at=1:count=1:target=critical" with
  | Ok _ -> Alcotest.fail "accepted target=critical without a provider"
  | Error _ -> ());
  match
    Chaos.of_spec ~seed:1
      ~critical:(fun ~round:_ -> [ 0 ])
      "burst:at=1:count=1:target=critical"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rejected target=critical with a provider: " ^ e)

let test_critical_targets_chi_set () =
  (* a Critical target hits only live members of the supplied χ set;
     when every member is dead it falls back to Uniform. *)
  let g = Gen.path 6 in
  let chaos =
    Chaos.create ~seed:9
      [
        Chaos.Burst
          { at = 1; width = 3; count = 1; kind = Chaos.Corrupt;
            target = Chaos.Critical (fun ~round:_ -> [ 2; 4 ]) };
      ]
  in
  List.iter
    (fun round ->
      match Chaos.actions_due chaos ~round g with
      | [ Fault.Corrupt_state n ] ->
          Alcotest.(check bool)
            (Printf.sprintf "round %d hits the chi set" round)
            true (n = 2 || n = 4)
      | l ->
          Alcotest.fail
            (Printf.sprintf "round %d: expected one corruption, got %d" round
               (List.length l)))
    [ 1; 2; 3 ];
  Graph.remove_node g 2;
  Graph.remove_node g 4;
  match Chaos.actions_due chaos ~round:1 g with
  | [ Fault.Corrupt_state n ] ->
      Alcotest.(check bool) "dead chi set falls back to uniform" true
        (Graph.is_live_node g n)
  | _ -> Alcotest.fail "expected one fallback corruption"

let suite =
  [
    Alcotest.test_case "span disabled semantics" `Quick test_span_disabled;
    Alcotest.test_case "span records" `Quick test_span_records;
    Alcotest.test_case "span ring wrap keeps last" `Quick test_span_ring_wrap;
    Alcotest.test_case "span capacity validated" `Quick
      test_span_capacity_invalid;
    Alcotest.test_case "chrome trace reparses" `Quick test_chrome_json_valid;
    Alcotest.test_case "timeline disabled semantics" `Quick
      test_timeline_disabled;
    Alcotest.test_case "timeline grows past capacity" `Quick
      test_timeline_growth;
    Alcotest.test_case "timeline JSONL round-trip" `Quick
      test_timeline_jsonl_roundtrip;
    Alcotest.test_case "timeline rejects bad rows" `Quick
      test_timeline_rejects_bad_row;
    Alcotest.test_case "timeline series for stats" `Quick test_timeline_series;
    Alcotest.test_case "regress: identical passes" `Quick
      test_regress_identical_passes;
    Alcotest.test_case "regress: slowdown and exact boundary" `Quick
      test_regress_slowdown_and_boundary;
    Alcotest.test_case "regress: missing and new workloads" `Quick
      test_regress_missing_and_new;
    Alcotest.test_case "regress: zero baseline" `Quick
      test_regress_zero_baseline;
    Alcotest.test_case "regress: words slack" `Quick test_regress_words_slack;
    Alcotest.test_case "regress: throughput drop" `Quick
      test_regress_throughput_drop;
    Alcotest.test_case "regress: malformed documents" `Quick
      test_regress_malformed_docs;
    Alcotest.test_case "regress: inject self-test" `Quick
      test_regress_inject_self_test;
    Alcotest.test_case "metrics timer" `Quick test_metrics_timer;
    Alcotest.test_case "round_ns gated by timing" `Quick
      test_round_ns_gated_by_timing;
    Alcotest.test_case "profiled run populates spans+timeline" `Quick
      test_profiled_run_populates;
    QCheck_alcotest.to_alcotest prop_profiling_preserves_trace_bytes;
    Alcotest.test_case "critical spec needs provider" `Quick
      test_critical_spec_needs_provider;
    Alcotest.test_case "critical targets chi set" `Quick
      test_critical_targets_chi_set;
  ]
