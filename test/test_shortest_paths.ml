module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Scheduler = Symnet_engine.Scheduler
module Fault = Symnet_engine.Fault
module Sp = Symnet_algorithms.Shortest_paths
module Chaos = Symnet_engine.Chaos
module Domain_pool = Symnet_engine.Domain_pool
module Obs = Symnet_obs

let setup ?(sinks = [ 0 ]) g =
  let cap = Graph.node_count g in
  Network.init ~rng:(Prng.create ~seed:42) g (Sp.automaton ~sinks ~cap)

let check_labels net g sinks =
  let dist = Analysis.distances g ~sources:sinks in
  let cap = Graph.original_size g in
  List.iter
    (fun (v, s) ->
      let expected = if dist.(v) = max_int then cap else min cap dist.(v) in
      Alcotest.(check int) (Printf.sprintf "label of %d" v) expected (Sp.label s))
    (Network.states net)

let test_grid_converges () =
  let g = Gen.grid ~rows:6 ~cols:6 in
  let net = setup g in
  let outcome = Runner.run net in
  Alcotest.(check bool) "quiesced" true outcome.Runner.quiesced;
  check_labels net g [ 0 ]

let test_converges_within_d_rounds () =
  (* a node at distance d stabilizes within d rounds (+1 round to detect
     quiescence) *)
  let g = Gen.path 30 in
  let net = setup g in
  let outcome = Runner.run net in
  Alcotest.(check bool) "rounds <= diameter + 1" true
    (outcome.Runner.rounds <= Analysis.diameter g + 1)

let test_multiple_sinks () =
  let g = Gen.grid ~rows:5 ~cols:5 in
  let sinks = [ 0; 24 ] in
  let net = setup ~sinks g in
  ignore (Runner.run net);
  check_labels net g sinks

let test_no_sink_caps () =
  let g = Gen.cycle 8 in
  let net = setup ~sinks:[] g in
  ignore (Runner.run ~max_rounds:100 net);
  List.iter
    (fun (_, s) -> Alcotest.(check int) "capped" 8 (Sp.label s))
    (Network.states net)

let test_async () =
  let g = Gen.random_connected (Prng.create ~seed:5) ~n:40 ~extra_edges:20 in
  let net = setup g in
  let outcome = Runner.run ~scheduler:Scheduler.Random_permutation net in
  Alcotest.(check bool) "quiesced" true outcome.Runner.quiesced;
  check_labels net g [ 0 ]

let test_zero_sensitivity_edge_fault () =
  (* kill an edge mid-run; labels re-converge to the new distances *)
  let g = Gen.cycle 20 in
  let faults = [ { Fault.at_round = 2; action = Fault.Kill_edge (10, 11) } ] in
  let net = setup g in
  ignore (Runner.run ~faults net);
  check_labels net g [ 0 ]

let test_zero_sensitivity_node_fault () =
  let g = Gen.grid ~rows:5 ~cols:5 in
  let faults = [ { Fault.at_round = 3; action = Fault.Kill_node 12 } ] in
  let net = setup g in
  ignore (Runner.run ~faults net);
  check_labels net g [ 0 ]

let test_labels_rise_after_disconnection () =
  (* cutting off the sink leaves the far side capped *)
  let g = Gen.path 10 in
  let net = setup g in
  ignore (Runner.run net);
  (* disconnect after full convergence, then let it re-converge *)
  Graph.remove_edge_between g 4 5;
  ignore (Runner.run net);
  check_labels net g [ 0 ]

let test_routing_follows_shortest_path () =
  let g = Gen.grid ~rows:6 ~cols:6 in
  let net = setup g in
  ignore (Runner.run net);
  let dist = Analysis.distances g ~sources:[ 0 ] in
  List.iter
    (fun (v, _) ->
      let path = Sp.route_path net ~src:v in
      Alcotest.(check int)
        (Printf.sprintf "path length from %d" v)
        (dist.(v) + 1) (List.length path);
      match List.rev path with
      | last :: _ -> Alcotest.(check int) "reaches sink" 0 last
      | [] -> Alcotest.fail "empty path")
    (Network.states net)

let test_route_next_none_at_sink () =
  let g = Gen.path 4 in
  let net = setup g in
  ignore (Runner.run net);
  Alcotest.(check (option int)) "sink routes nowhere" None (Sp.route_next net 0);
  Alcotest.(check (option int)) "next hop" (Some 0) (Sp.route_next net 1)

let prop_random_graphs_converge_correctly =
  QCheck.Test.make ~name:"shortest paths correct on random graphs" ~count:25
    QCheck.(pair (int_range 2 40) (int_range 0 30))
    (fun (n, extra) ->
      let g = Gen.random_connected (Prng.create ~seed:(n + (41 * extra))) ~n ~extra_edges:extra in
      let net = setup g in
      ignore (Runner.run net);
      let dist = Analysis.distances g ~sources:[ 0 ] in
      List.for_all
        (fun (v, s) -> Sp.label s = min n dist.(v))
        (Network.states net))

(* --- shared records = the frozen fresh-record automaton ------------- *)

(* Bursts of corruptions and crash-restarts, and reliable link drops,
   which only a sharded run feels. *)
let chaos_spec =
  "burst:at=3:count=4:kind=corrupt;burst:at=6:count=2:kind=crash:downtime=3;\
   link=drop:p=0.1:reliable=true"

(* A corruption that builds a fresh record with a random label, which
   may exceed the cap, as the benchmark's corruptions build theirs. *)
let corrupt rng net v =
  let n = Graph.original_size (Network.graph net) in
  { (Network.state net v) with Sp.label = Prng.int rng (n + 2) }

type plan =
  | Naive
  | Dirty
  | Rotor  (* asynchronous activations through the network's own view *)
  | Sharded_chaos of int  (* 4 dirty shards under [chaos_spec], domains *)
  | Pooled  (* naive one-shard rounds cut into slices on 2 domains *)

let plan_name = function
  | Naive -> "naive"
  | Dirty -> "dirty"
  | Rotor -> "rotor"
  | Sharded_chaos d -> Printf.sprintf "4 dirty shards, chaos, %d domain(s)" d
  | Pooled -> "naive on a 2-domain pool"

(* Final states, rounds, activations, transitions and the event trace of
   one run of [automaton] on a random graph with two sinks. *)
let run_plan automaton plan (n, extra, seed) =
  let g = Gen.random_connected (Prng.create ~seed) ~n ~extra_edges:extra in
  let net =
    Network.init ~rng:(Prng.create ~seed:(seed + 1)) g
      (automaton ~sinks:[ 0; n / 2 ] ~cap:n)
  in
  Network.set_par_cutoff net 0;
  let buf = Buffer.create 4096 in
  let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
  let pooled domains f =
    if domains = 1 then f None
    else Domain_pool.with_pool ~domains (fun pool -> f (Some pool))
  in
  let o =
    match plan with
    | Naive -> Runner.run ~recorder net
    | Dirty -> Runner.run ~dirty:true ~recorder net
    | Rotor -> Runner.run ~scheduler:Scheduler.Rotor ~recorder net
    | Sharded_chaos domains ->
        let chaos =
          match Chaos.of_spec ~seed chaos_spec with
          | Ok c -> c
          | Error e -> Alcotest.failf "chaos spec rejected: %s" e
        in
        pooled domains (fun pool ->
            Runner.run ~dirty:true ~shards:4 ~chaos ~corrupt ~max_rounds:400
              ?pool ~recorder net)
    | Pooled -> pooled 2 (fun pool -> Runner.run ?pool ~recorder net)
  in
  ( Network.states net,
    o.Runner.rounds,
    o.Runner.activations,
    o.Runner.transitions,
    o.Runner.quiesced,
    Buffer.contents buf )

(* The automaton shares one record per label; the frozen copy in
   [sp_ref.ml] builds a fresh one per relabel.  Every plan must give
   structurally equal final states, equal counts and equal trace bytes,
   through corruptions with fresh records, crash-restarts, reliable
   link drops and pools. *)
let prop_shared_records_equal_reference =
  QCheck.Test.make ~name:"shared records = frozen reference" ~count:25
    QCheck.(triple (int_range 8 60) (int_range 0 40) small_nat)
    (fun gspec ->
      List.for_all
        (fun plan ->
          let got = run_plan Sp.automaton plan gspec in
          let want = run_plan Sp_ref.automaton plan gspec in
          got = want
          || QCheck.Test.fail_reportf "plan %s differs from the reference"
               (plan_name plan))
        [ Naive; Dirty; Rotor; Sharded_chaos 1; Sharded_chaos 2; Pooled ])

let suite =
  [
    Alcotest.test_case "grid converges" `Quick test_grid_converges;
    Alcotest.test_case "converges within d rounds" `Quick test_converges_within_d_rounds;
    Alcotest.test_case "multiple sinks" `Quick test_multiple_sinks;
    Alcotest.test_case "no sink caps" `Quick test_no_sink_caps;
    Alcotest.test_case "asynchronous run" `Quick test_async;
    Alcotest.test_case "0-sensitive: edge fault" `Quick test_zero_sensitivity_edge_fault;
    Alcotest.test_case "0-sensitive: node fault" `Quick test_zero_sensitivity_node_fault;
    Alcotest.test_case "labels rise after disconnect" `Quick
      test_labels_rise_after_disconnection;
    Alcotest.test_case "routing follows shortest paths" `Quick
      test_routing_follows_shortest_path;
    Alcotest.test_case "route_next at sink" `Quick test_route_next_none_at_sink;
    QCheck_alcotest.to_alcotest prop_random_graphs_converge_correctly;
    QCheck_alcotest.to_alcotest prop_shared_records_equal_reference;
  ]
