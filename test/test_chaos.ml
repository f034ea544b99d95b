(* Chaos engine and recovery layer: graph snapshot/restore and node
   revival, network checkpoint/restore exactness (states, counters,
   dirty set), version monotonicity across restores, runner recovery
   policies and the progress watchdog, fault no-op accounting,
   crash-restart semantics and the chaos spec grammar. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Fault = Symnet_engine.Fault
module Chaos = Symnet_engine.Chaos
module Fssga = Symnet_core.Fssga
module Stab = Symnet_sensitivity.Stabilization
module Obs = Symnet_obs
module A = Symnet_algorithms

let graph () = Gen.random_connected (Prng.create ~seed:11) ~n:20 ~extra_edges:12
let sp n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n

(* --- Graph.snapshot / restore / revive_node ------------------------- *)

let observe_nv g =
  ( List.init (Graph.original_size g) (Graph.is_live_node g),
    List.init (Graph.original_size g) (Graph.degree g),
    List.sort compare (List.map (fun e -> e.Graph.id) (Graph.edges g)),
    Graph.node_count g,
    Graph.edge_count g )

let test_graph_snapshot_restore () =
  let g = graph () in
  Graph.remove_node g 3;
  let before = observe_nv g in
  let snap = Graph.snapshot g in
  Graph.remove_node g 5;
  Graph.remove_edge g 0;
  Graph.remove_node g 7;
  let v_mutated = Graph.version g in
  Alcotest.(check bool) "mutations observed" true (observe_nv g <> before);
  Graph.restore g snap;
  Alcotest.(check bool) "restore is observationally exact" true
    (observe_nv g = before);
  (* The version counter never rewinds: a restore is itself a mutation,
     so version-keyed caches invalidate instead of colliding. *)
  Alcotest.(check bool) "restore bumps the version past the divergence" true
    (Graph.version g > v_mutated)

let test_graph_restore_wrong_graph () =
  let g = graph () in
  let snap = Graph.snapshot g in
  let other = Gen.grid ~rows:3 ~cols:3 in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Graph.restore: snapshot from a different graph")
    (fun () -> Graph.restore other snap)

let test_revive_node_roundtrip () =
  let g = graph () in
  let before = observe_nv g in
  Graph.remove_node g 4;
  Alcotest.(check bool) "node dead" false (Graph.is_live_node g 4);
  Graph.revive_node g 4;
  Alcotest.(check bool) "kill + revive is the identity (modulo version)" true
    (observe_nv g = before)

let test_revive_respects_dead_edges () =
  (* an edge explicitly killed while the node was down stays dead *)
  let g = graph () in
  let v = 4 in
  match Graph.incident g v with
  | [] -> Alcotest.fail "expected an incident edge"
  | e :: _ ->
      Graph.remove_node g v;
      Graph.remove_edge g e.Graph.id;
      Graph.revive_node g v;
      Alcotest.(check bool) "killed edge stays dead" false
        (Graph.is_live_edge g e.Graph.id);
      Alcotest.(check int) "degree counts only live edges"
        (List.length (Graph.neighbours g v))
        (Graph.degree g v)

(* --- Network.checkpoint / restore ----------------------------------- *)

(* Liveness/state observables only: the graph version is deliberately
   excluded because it is strictly monotonic — a restore bumps it, so a
   replay never repeats the version sequence even when everything else
   is bit-identical. *)
let net_observe net =
  ( Network.states net,
    Network.activations net,
    Network.transitions net,
    observe_nv (Network.graph net) )

let test_checkpoint_restore_exact () =
  (* run to a checkpoint, continue under a fault, restore, replay: the
     second continuation must be bit-identical to the first *)
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:3) g (sp 20) in
  for _ = 1 to 3 do
    ignore (Network.sync_step net)
  done;
  let cp = Network.checkpoint net in
  let at_cp = net_observe net in
  let continue () =
    Graph.remove_node g 6;
    for _ = 1 to 4 do
      ignore (Network.sync_step net)
    done;
    net_observe net
  in
  let first = continue () in
  Network.restore net cp;
  Alcotest.(check bool) "restore lands exactly on the checkpoint" true
    (net_observe net = at_cp);
  Alcotest.(check bool) "replay after restore is bit-identical" true
    (continue () = first)

let test_checkpoint_restore_dirty () =
  (* same exactness with change-driven stepping: the dirty set is part
     of the checkpoint, and graph mutations are reconciled the same way
     the runner does it *)
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:4) g (sp 20) in
  let runtime = Sharded.create ~shards:1 net in
  let round () =
    let changed = Sharded.step ~dirty:true runtime in
    Audit.check ~runtime net;
    changed
  in
  for _ = 1 to 2 do
    ignore (round ())
  done;
  let cp = Network.checkpoint net in
  let continue () =
    Network.mark_dirty_around net 2;
    Graph.remove_node g 2;
    Network.ack_graph_mutations net;
    let flags = List.init 6 (fun _ -> round ()) in
    (flags, net_observe net)
  in
  let first = continue () in
  Network.restore net cp;
  Alcotest.(check bool) "dirty replay is bit-identical" true
    (continue () = first)

(* --- Runner recovery policies ---------------------------------------- *)

(* A livelock by construction: every node flips 0 <-> 1 forever, so the
   per-round transition count never reaches a new minimum. *)
let blinker =
  Fssga.deterministic ~name:"blinker"
    ~init:(fun _ _ -> 0)
    ~step:(fun ~self _view -> 1 - self)

let blinker_net () =
  Network.init ~rng:(Prng.create ~seed:5) (graph ()) blinker

let test_watchdog_give_up () =
  let o =
    Runner.run
      ~recovery:(Runner.recovery ~patience:5 Runner.Give_up)
      ~max_rounds:1_000 (blinker_net ())
  in
  Alcotest.(check bool) "gave up" true o.Runner.gave_up;
  Alcotest.(check int) "one recovery step" 1 o.Runner.recoveries;
  Alcotest.(check bool) "long before the budget" true (o.Runner.rounds < 100)

let test_watchdog_retry_then_give_up () =
  (* deterministic replay without reseeding reproduces the livelock, so
     both rollback attempts burn out and the run gives up *)
  let o =
    Runner.run
      ~recovery:
        (Runner.recovery ~patience:5 ~checkpoint_every:4
           (Runner.Retry { attempts = 2; reseed = false }))
      ~max_rounds:1_000 (blinker_net ())
  in
  Alcotest.(check bool) "gave up after retries" true o.Runner.gave_up;
  Alcotest.(check int) "two rollbacks + one give-up" 3 o.Runner.recoveries

let test_watchdog_degrade_then_give_up () =
  let o =
    Runner.run
      ~recovery:(Runner.recovery ~patience:5 Runner.Degrade)
      ~max_rounds:1_000 (blinker_net ())
  in
  Alcotest.(check bool) "gave up after degrading" true o.Runner.gave_up;
  Alcotest.(check int) "degrade + give-up" 2 o.Runner.recoveries

let test_watchdog_spares_converging_runs () =
  let net = Network.init ~rng:(Prng.create ~seed:6) (graph ()) (sp 20) in
  let o =
    Runner.run
      ~recovery:(Runner.recovery ~patience:3 Runner.Give_up)
      ~max_rounds:1_000 net
  in
  Alcotest.(check bool) "quiesced" true o.Runner.quiesced;
  Alcotest.(check bool) "no false positive" false o.Runner.gave_up;
  Alcotest.(check int) "no recovery steps" 0 o.Runner.recoveries

(* --- fault accounting and crash-restart ------------------------------ *)

let test_faults_noop_counted () =
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:7) g (sp 20) in
  let buf = Buffer.create 256 in
  let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
  let faults =
    [
      { Fault.at_round = 1; action = Fault.Kill_node 3 };
      { Fault.at_round = 2; action = Fault.Kill_node 3 } (* already dead *);
      { Fault.at_round = 2; action = Fault.Kill_edge (0, 0) } (* no such edge *);
    ]
  in
  let o = Runner.run ~faults ~recorder ~max_rounds:100 net in
  Obs.Recorder.close recorder;
  Alcotest.(check int) "one effective fault" 1 o.Runner.faults_applied;
  Alcotest.(check int) "two no-ops" 2 o.Runner.faults_noop;
  let trace = Buffer.contents buf in
  let count_substring sub s =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "no-ops surface in the trace" 2
    (count_substring "fault_noop" trace)

let test_crash_restart_semantics () =
  (* node dead for the crash round plus its downtime, then back in the
     start state; the final fixpoint matches the fault-free run because
     the graph ends up whole again *)
  let v = 6 in
  let downtime = 2 in
  let liveness = ref [] in
  let run faults =
    let g = graph () in
    let net = Network.init ~rng:(Prng.create ~seed:8) g (sp 20) in
    let o =
      Audit.finish (fun ~on_round ->
          Runner.start ~faults ~max_rounds:200
            ~on_round:(fun ~round net ->
              on_round ~round net;
              if faults <> [] && round <= 8 then
                liveness :=
                  (round, Graph.is_live_node (Network.graph net) v) :: !liveness)
            net)
    in
    (o, Network.states net)
  in
  let faults =
    [ { Fault.at_round = 2; action = Fault.Crash_restart { node = v; downtime } } ]
  in
  let o, faulted_states = run faults in
  let _, clean_states = run [] in
  Alcotest.(check int) "crash counted once" 1 o.Runner.faults_applied;
  List.iter
    (fun (round, alive) ->
      let expect = not (round >= 2 && round <= 2 + downtime) in
      Alcotest.(check bool)
        (Printf.sprintf "liveness at round %d" round)
        expect alive)
    !liveness;
  Alcotest.(check bool) "fixpoint matches the fault-free run" true
    (faulted_states = clean_states)

let test_corrupt_state_heals () =
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:9) g (sp 20) in
  let faults =
    [
      { Fault.at_round = 3; action = Fault.Corrupt_state 5 };
      { Fault.at_round = 3; action = Fault.Corrupt_state 9 };
    ]
  in
  let o =
    Audit.finish (fun ~on_round ->
        Runner.start ~faults
          ~corrupt:(fun _rng net v ->
            { (Network.state net v) with A.Shortest_paths.label = 20 })
          ~max_rounds:200 ~on_round net)
  in
  Alcotest.(check int) "both corruptions landed" 2 o.Runner.faults_applied;
  Alcotest.(check bool) "quiesced" true o.Runner.quiesced;
  let dist = Analysis.distances g ~sources:[ 0 ] in
  Alcotest.(check bool) "labels healed to true distances" true
    (List.for_all
       (fun (v, s) -> A.Shortest_paths.label s = min 20 dist.(v))
       (Network.states net))

(* --- chaos processes and the spec grammar ---------------------------- *)

let test_chaos_actions_pure () =
  let g = graph () in
  let c =
    Chaos.create ~seed:42
      [
        Chaos.Burst
          { at = 2; width = 3; count = 2; kind = Chaos.Corrupt;
            target = Chaos.Uniform };
        Chaos.Bernoulli
          { p = 0.5; kind = Chaos.Kill_edge; target = Chaos.High_degree };
      ]
  in
  let due round = Chaos.actions_due c ~round g in
  Alcotest.(check bool) "same round, same actions" true (due 3 = due 3);
  Alcotest.(check bool) "nothing before round 1" true (due 0 = [])

let test_chaos_horizon () =
  let burst at =
    Chaos.Burst
      { at; width = 2; count = 1; kind = Chaos.Corrupt; target = Chaos.Uniform }
  in
  let bounded = Chaos.create ~seed:1 [ burst 3; burst 7 ] in
  Alcotest.(check (option int)) "last burst round" (Some 8)
    (Chaos.horizon bounded);
  Alcotest.(check bool) "exhausted past the horizon" true
    (Chaos.exhausted bounded ~round:8);
  Alcotest.(check bool) "not exhausted before" false
    (Chaos.exhausted bounded ~round:7);
  let unbounded =
    Chaos.create ~seed:1
      [ burst 3; Chaos.Periodic { every = 5; phase = 0; kind = Chaos.Kill_node;
                                  target = Chaos.Uniform } ]
  in
  Alcotest.(check (option int)) "periodic is unbounded" None
    (Chaos.horizon unbounded)

let test_chaos_spec_parses () =
  match
    Chaos.of_spec ~seed:1
      "burst:at=5:count=3:kind=corrupt;bernoulli:p=0.02:kind=crash:downtime=4:target=degree"
  with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match Chaos.processes c with
      | [ Chaos.Burst { at = 5; count = 3; kind = Chaos.Corrupt; _ };
          Chaos.Bernoulli
            { p = 0.02; kind = Chaos.Crash { downtime = 4 };
              target = Chaos.High_degree } ] ->
          ()
      | _ -> Alcotest.fail "unexpected parse")

let test_chaos_spec_rejects () =
  let bad spec =
    match Chaos.of_spec ~seed:1 spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" spec)
    | Error _ -> ()
  in
  bad "";
  bad "tsunami:p=0.5";
  bad "burst:at=banana";
  bad "burst:frequency=3";
  bad "bernoulli:kind=meteor"

let test_mttr_split () =
  (* the paper's separation, at test scale: min+1 relaxation recovers
     from a corruption burst, the census OR does not *)
  let chaos =
    [
      Chaos.Burst
        { at = 3; width = 1; count = 1; kind = Chaos.Corrupt;
          target = Chaos.Uniform };
    ]
  in
  let graph () =
    Gen.random_connected (Prng.create ~seed:21) ~n:16 ~extra_edges:8
  in
  let sp_verdict =
    Stab.mttr ~rng:(Prng.create ~seed:1) ~automaton:(sp 16) ~graph ~chaos
      ~corrupt:(fun rng net v ->
        { (Network.state net v) with A.Shortest_paths.label = Prng.int rng 17 })
      ~legitimate:(fun net ->
        let g = Network.graph net in
        let dist = Analysis.distances g ~sources:[ 0 ] in
        List.for_all
          (fun (v, s) -> A.Shortest_paths.label s = min 16 dist.(v))
          (Network.states net))
      ~trials:3 ~max_rounds:300 ()
  in
  Alcotest.(check int) "shortest paths recovers" 3 sp_verdict.Stab.recovered;
  let k = A.Census.recommended_k 16 in
  let census_verdict =
    Stab.mttr ~rng:(Prng.create ~seed:2) ~automaton:(A.Census.automaton ~k)
      ~graph ~chaos
      ~corrupt:(fun _rng _net _v -> A.Census.of_bits ~k ((1 lsl k) - 1))
      ~legitimate:(fun net ->
        match
          List.filter_map (fun (_, s) -> A.Census.estimate s)
            (Network.states net)
        with
        | [] -> false
        | es -> List.for_all (fun e -> e < 8. *. 16.) es)
      ~trials:3 ~max_rounds:300 ()
  in
  Alcotest.(check int) "census sticks" 0 census_verdict.Stab.recovered

let test_mttr_rejects_unbounded_chaos () =
  let chaos =
    [ Chaos.Bernoulli { p = 0.1; kind = Chaos.Corrupt; target = Chaos.Uniform } ]
  in
  Alcotest.check_raises "unbounded chaos rejected"
    (Invalid_argument "Stabilization.mttr: chaos must be bounded (bursts)")
    (fun () ->
      ignore
        (Stab.mttr ~rng:(Prng.create ~seed:1) ~automaton:(sp 16)
           ~graph:(fun () ->
             Gen.random_connected (Prng.create ~seed:21) ~n:16 ~extra_edges:8)
           ~chaos
           ~legitimate:(fun _ -> true)
           ~trials:1 ~max_rounds:10 ()
          : _ Stab.verdict))

let suite =
  [
    Alcotest.test_case "graph snapshot/restore is exact" `Quick
      test_graph_snapshot_restore;
    Alcotest.test_case "graph restore rejects foreign snapshots" `Quick
      test_graph_restore_wrong_graph;
    Alcotest.test_case "revive_node round-trips" `Quick
      test_revive_node_roundtrip;
    Alcotest.test_case "revive_node respects dead edges" `Quick
      test_revive_respects_dead_edges;
    Alcotest.test_case "network checkpoint/restore replays exactly" `Quick
      test_checkpoint_restore_exact;
    Alcotest.test_case "checkpoint/restore with dirty stepping" `Quick
      test_checkpoint_restore_dirty;
    Alcotest.test_case "watchdog: give up on livelock" `Quick
      test_watchdog_give_up;
    Alcotest.test_case "watchdog: retry then give up" `Quick
      test_watchdog_retry_then_give_up;
    Alcotest.test_case "watchdog: degrade then give up" `Quick
      test_watchdog_degrade_then_give_up;
    Alcotest.test_case "watchdog spares converging runs" `Quick
      test_watchdog_spares_converging_runs;
    Alcotest.test_case "no-op faults counted and traced" `Quick
      test_faults_noop_counted;
    Alcotest.test_case "crash-restart timing and fixpoint" `Quick
      test_crash_restart_semantics;
    Alcotest.test_case "corrupted labels heal" `Quick test_corrupt_state_heals;
    Alcotest.test_case "chaos actions are pure per round" `Quick
      test_chaos_actions_pure;
    Alcotest.test_case "chaos horizon" `Quick test_chaos_horizon;
    Alcotest.test_case "chaos spec grammar accepts" `Quick
      test_chaos_spec_parses;
    Alcotest.test_case "chaos spec grammar rejects" `Quick
      test_chaos_spec_rejects;
    Alcotest.test_case "MTTR separates the paper's algorithms" `Quick
      test_mttr_split;
    Alcotest.test_case "MTTR rejects unbounded chaos" `Quick
      test_mttr_rejects_unbounded_chaos;
  ]
