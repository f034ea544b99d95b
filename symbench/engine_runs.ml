(* The two batch workloads: census_sweep (flat engine, every node read
   and committed every round) and sp_chaos_sharded (sharded engine on a
   sparse dirty frontier, under node chaos and link drops).  Each runs
   one session to quiescence, timing every [Runner.step]. *)

module Prng = Symnet_prng.Prng
module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Recorder = Symnet_obs.Recorder
module Metrics = Symnet_obs.Metrics
module Span = Symnet_obs.Span
module Jsonx = Symnet_obs.Jsonx
module Census = Symnet_algorithms.Census
module Sp = Symnet_algorithms.Shortest_paths

(* Independent input streams for one (seed, process) pair. *)
let derive ~seed ~sub salt =
  Prng.bits (Prng.split_key (Prng.create ~seed:((seed * 1_000_003) + sub)) ~key:salt)
  land 0x3fff_ffff

let instruments ~traced =
  let spans =
    if traced then Span.create ~capacity:(1 lsl 18) () else Span.null
  in
  let recorder =
    if traced then Recorder.create ~activation_events:false ~spans ()
    else Recorder.null
  in
  (spans, recorder, Probe.log ~on:traced)

let counter recorder name =
  match Recorder.snapshot recorder with
  | Some s -> Option.value ~default:0 (List.assoc_opt name s.Metrics.counters)
  | None -> 0

(* Failures are counted in full; only the first few are kept for the
   report. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok note =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 5 then c.notes <- note () :: c.notes
  end

type run = {
  outcome : Runner.outcome;
  steps_ms : float list;
  t_first : int;
  t_last : int;
  gc_before : Probe.gc;
  gc_after : Probe.gc;
}

let drive ~log session =
  let gc_before = Probe.gc_now () in
  let steps = ref [] in
  let t_first = Probe.now_ns () in
  let rec go () =
    let round = Runner.session_round session in
    let t0 = Probe.now_ns () in
    let r = Runner.step session in
    let t1 = Probe.record log "runner.step" ~tag:round ~t0 in
    steps := Probe.ms (t1 - t0) :: !steps;
    match r with Some o -> (o, t1) | None -> go ()
  in
  let outcome, t_last = go () in
  let gc_after = Probe.gc_now () in
  { outcome; steps_ms = List.rev !steps; t_first; t_last; gc_before; gc_after }

let containers = [ "runner.step"; "round" ]

let layers ~traced ~sharded ~spans ~log ~recorder run =
  if not traced then []
  else begin
    let o = run.outcome in
    let at =
      Probe.attribute ~containers
        ~windows:[ (run.t_first, run.t_last) ]
        (Probe.items_of ~spans ~log)
    in
    let self = Probe.self_ms at in
    let rounds = float_of_int (max 1 o.Runner.rounds) in
    let acts = float_of_int (max 1 o.Runner.activations) in
    let phase_ms = self "read" +. self "shard_read" +. self "commit" in
    let flat x = if sharded then 0. else x and shard x = if sharded then x else 0. in
    [
      ("network.read_ms", flat (self "read"));
      ("network.commit_ms", flat (self "commit"));
      ("network.activations", float_of_int o.Runner.activations);
      ( "network.useful_ratio",
        float_of_int o.Runner.transitions /. acts );
      ("network.ns_per_activation", phase_ms *. 1e6 /. acts);
      ("shard.read_ms", shard (self "shard_read"));
      ("shard.commit_ms", shard (self "commit"));
      ("shard.exchange_ms", shard (self "shard_exchange"));
      ("shard.frontier_mean", shard (acts /. rounds));
      ("shard.residual_ms", shard (self "round"));
      ("link.exchange_ms", self "link_exchange");
      ("link.dropped", float_of_int (counter recorder "messages_dropped"));
      ( "link.retries_per_round",
        float_of_int (counter recorder "retries") /. rounds );
      ("link.stalls", float_of_int (counter recorder "backpressure_stalls"));
      ("chaos.apply_ms", self "fault_apply");
      ("chaos.faults", float_of_int o.Runner.faults_applied);
      ("chaos.faults_noop", float_of_int o.Runner.faults_noop);
      ( "chaos.ms_per_fault",
        self "fault_apply" /. float_of_int (max 1 o.Runner.faults_applied) );
      ("runner.rounds", float_of_int o.Runner.rounds);
    ]
    @ Probe.obs_metrics at ~spans
  end

let sample ~setup_s ~graph_build_s ~checks ~run ~layers ~extra =
  let o = run.outcome in
  Jsonx.Obj
    ([
       ("setup_s", Jsonx.Float setup_s);
       ("graph_build_s", Jsonx.Float graph_build_s);
       ("run_s", Jsonx.Float (Probe.secs (run.t_last - run.t_first)));
       ("attempted", Jsonx.Int checks.attempted);
       ("failed", Jsonx.Int checks.failed);
       ("failures", Jsonx.List (List.rev_map (fun s -> Jsonx.String s) checks.notes));
       ("rounds", Jsonx.Int o.Runner.rounds);
       ("activations", Jsonx.Int o.Runner.activations);
       ("quiesced", Jsonx.Bool o.Runner.quiesced);
       ("step_ms", Probe.floats run.steps_ms);
       ( "gc",
         Probe.gc_json
           (Probe.gc_diff run.gc_before run.gc_after)
           ~activations:o.Runner.activations );
       ( "layers",
         Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) layers) );
     ]
    @ extra)

let finish_trace ~trace_out ~spans ~log =
  match trace_out with
  | Some path -> Probe.write_chrome ~path ~spans ~log
  | None -> ()

(* {1 census_sweep}

   Flajolet–Martin census on a 200,000-node random connected graph with
   200,000 extra chords, flat engine, one domain.  Probabilistic, so
   every live node is read and committed every round until the masks
   stop changing. *)

let census_sweep ~seed ~sub ~traced ~trace_out =
  let n = 200_000 and extra_edges = 200_000 in
  let k = Census.recommended_k n in
  let spans, recorder, log = instruments ~traced in
  let t_setup = Probe.now_ns () in
  let g =
    Probe.timed log "setup.graph" ~tag:0 (fun () ->
        Gen.random_connected
          (Prng.create ~seed:(derive ~seed ~sub 1))
          ~n ~extra_edges)
  in
  let net =
    Probe.timed log "setup.init" ~tag:0 (fun () ->
        Network.init
          ~rng:(Prng.create ~seed:(derive ~seed ~sub 2))
          g (Census.automaton ~k))
  in
  let graph_build_s = Probe.secs (Probe.now_ns () - t_setup) in
  (* The round-1 masks are each node's own geometric draw; the network
     must end with every live node holding their OR. *)
  let expected = ref 0 in
  let on_round ~round net =
    if round = 1 then
      Graph.iter_nodes (Network.graph net) (fun v ->
          match Census.bits (Network.state net v) with
          | Some m -> expected := !expected lor m
          | None -> ())
  in
  let session =
    Probe.timed log "setup.start" ~tag:0 (fun () ->
        Runner.start ~recorder ~on_round net)
  in
  Probe.timed log "setup.gc" ~tag:0 Gc.full_major;
  let setup_s = Probe.secs (Probe.now_ns () - t_setup) in
  let p1 = Probe.host_probe_child () in
  let run = drive ~log session in
  let p2 = Probe.host_probe_child () in
  let c = checks () in
  check c run.outcome.Runner.quiesced (fun () -> "did not quiesce");
  Graph.iter_nodes (Network.graph net) (fun v ->
      let got = Census.bits (Network.state net v) in
      check c (got = Some !expected) (fun () ->
          Printf.sprintf "node %d mask %s, expected %d" v
            (match got with Some m -> string_of_int m | None -> "fresh")
            !expected));
  let layers = layers ~traced ~sharded:false ~spans ~log ~recorder run in
  finish_trace ~trace_out ~spans ~log;
  sample ~setup_s ~graph_build_s ~checks:c ~run ~layers
    ~extra:[ ("mask", Jsonx.Int !expected); ("probe_ms", Probe.floats [ p1; p2 ]) ]

(* {1 sp_chaos_sharded}

   Shortest paths on the 317x317 grid through four shards, one session
   to quiescence.  After the first convergence (about 632 rounds from a
   corner sink) a bounded chaos horizon hits it: one random-label
   corruption and one crash-restart per round for rounds 700..799,
   while every cross-shard message is dropped with p = 0.05 under the
   reliable exchange. *)

let side = 317

let chaos_spec =
  "burst:at=700:width=100:count=1:kind=corrupt;\
   burst:at=700:width=100:count=1:kind=crash:downtime=2;\
   link=drop:p=0.05:reliable=true"

(* The sink is one of the four corners (all equivalent under the grid's
   symmetry, so the cost does not depend on the pick). *)
let corner ~seed ~sub =
  let n = side * side in
  [| 0; side - 1; n - side; n - 1 |].(derive ~seed ~sub 4 mod 4)

let sp_chaos_sharded ~seed ~sub ~traced ~trace_out =
  let spans, recorder, log = instruments ~traced in
  let t_setup = Probe.now_ns () in
  let g =
    Probe.timed log "setup.graph" ~tag:0 (fun () ->
        Gen.grid ~rows:side ~cols:side)
  in
  let n = Graph.original_size g in
  let cap = n in
  let sink = corner ~seed ~sub in
  let net =
    Probe.timed log "setup.init" ~tag:0 (fun () ->
        Network.init
          ~rng:(Prng.create ~seed:(derive ~seed ~sub 2))
          g
          (Sp.automaton ~sinks:[ sink ] ~cap))
  in
  let graph_build_s = Probe.secs (Probe.now_ns () - t_setup) in
  let chaos =
    match Chaos.of_spec ~seed:(derive ~seed ~sub 3) chaos_spec with
    | Ok c -> c
    | Error e -> failwith e
  in
  (* A random label no lower than the node's current one.  A label
     below the true distance opens a basin that takes up to ~632 rounds
     and millions of activations to drain; with uniform labels whether
     any of the 100 lands low is a coin flip on the seed, which made the
     run cost swing 10x between seeds (see README.md). *)
  let corrupt rng net v =
    let s = Network.state net v in
    { s with Sp.label = s.Sp.label + Prng.int rng (cap + 1 - s.Sp.label) }
  in
  let session =
    Probe.timed log "setup.start" ~tag:0 (fun () ->
        Runner.start ~recorder ~shards:4 ~chaos ~corrupt net)
  in
  Probe.timed log "setup.gc" ~tag:0 Gc.full_major;
  let setup_s = Probe.secs (Probe.now_ns () - t_setup) in
  let p1 = Probe.host_probe_child () in
  let run = drive ~log session in
  let p2 = Probe.host_probe_child () in
  let c = checks () in
  check c run.outcome.Runner.quiesced (fun () -> "did not quiesce");
  let g = Network.graph net in
  let dist = Analysis.distances g ~sources:[ sink ] in
  Graph.iter_nodes g (fun v ->
      let got = Sp.label (Network.state net v) in
      let want = min cap dist.(v) in
      check c (got = want) (fun () ->
          Printf.sprintf "node %d label %d, expected %d" v got want));
  let layers = layers ~traced ~sharded:true ~spans ~log ~recorder run in
  finish_trace ~trace_out ~spans ~log;
  sample ~setup_s ~graph_build_s ~checks:c ~run ~layers
    ~extra:[ ("sink", Jsonx.Int sink); ("probe_ms", Probe.floats [ p1; p2 ]) ]
