(* Differential tests for the engine hot path:
   - the CSR adjacency agrees with a reference adjacency rebuilt from the
     live edge list, on random graphs under random deletions;
   - change-driven (dirty-set) scheduling produces bit-identical final
     states and round counts to naive stepping for deterministic
     automata, including under faults and direct graph mutation. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Scheduler = Symnet_engine.Scheduler
module Sharded_network = Symnet_engine.Sharded_network
module Fault = Symnet_engine.Fault
module Sp = Symnet_algorithms.Shortest_paths

(* A random graph plus a deletion schedule, both derived from the qcheck
   integers so every case is reproducible. *)
let build_mutated (n, extra, dels) =
  let g =
    Gen.random_connected (Prng.create ~seed:(n + (97 * extra))) ~n ~extra_edges:extra
  in
  let rng = Prng.create ~seed:(dels + 13) in
  for _ = 1 to dels do
    if Prng.bool rng then begin
      (* spare node 0 so the graph keeps at least one live node *)
      let v = 1 + Prng.int rng (max 1 (n - 1)) in
      if v < n then Graph.remove_node g v
    end
    else begin
      let m = List.length (Graph.edges g) in
      if m > 0 then
        let e = List.nth (Graph.edges g) (Prng.int rng m) in
        Graph.remove_edge g e.Graph.id
    end
  done;
  g

(* Reference adjacency from the public live-edge list: each row ascending
   by edge id, which is the order the legacy list representation used and
   the CSR rows preserve. *)
let reference_adjacency g =
  let n = Graph.original_size g in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Graph.edge) ->
      adj.(e.u) <- e.v :: adj.(e.u);
      adj.(e.v) <- e.u :: adj.(e.v))
    (List.rev (Graph.edges g));
  adj

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"CSR adjacency = edge-list reference under deletions"
    ~count:60
    QCheck.(triple (int_range 2 40) (int_range 0 40) (int_range 0 15))
    (fun case ->
      let g = build_mutated case in
      let adj = reference_adjacency g in
      let ok = ref true in
      for v = 0 to Graph.original_size g - 1 do
        let expected = if Graph.is_live_node g v then adj.(v) else [] in
        if Graph.neighbours g v <> expected then ok := false;
        if Graph.degree g v <> List.length expected then ok := false;
        (* iter_neighbours agrees with the list shim, in order *)
        let acc = ref [] in
        Graph.iter_neighbours g v (fun w -> acc := w :: !acc);
        if List.rev !acc <> expected then ok := false
      done;
      let md =
        Array.fold_left max 0
          (Array.mapi
             (fun v l -> if Graph.is_live_node g v then List.length l else 0)
             adj)
      in
      !ok && Graph.max_degree g = md)

(* --- dirty-set differential tests ----------------------------------- *)

let final_states net =
  List.map (fun (v, s) -> (v, Sp.label s)) (Network.states net)

let run_both ?faults scheduler (n, extra) =
  let mk () =
    Gen.random_connected (Prng.create ~seed:(n + (61 * extra))) ~n ~extra_edges:extra
  in
  let run ~dirty =
    let g = mk () in
    let cap = Graph.node_count g in
    let net =
      Network.init ~rng:(Prng.create ~seed:7) g
        (Sp.automaton ~sinks:[ 0 ] ~cap)
    in
    let outcome = Runner.run ~scheduler ~dirty ?faults net in
    (outcome.Runner.rounds, outcome.Runner.quiesced, final_states net)
  in
  (run ~dirty:true, run ~dirty:false)

let prop_dirty_equals_naive_sync =
  QCheck.Test.make ~name:"dirty sync = naive sync (rounds and states)"
    ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 30))
    (fun case ->
      let d, nv = run_both Scheduler.Synchronous case in
      d = nv)

let prop_dirty_equals_naive_rotor =
  QCheck.Test.make ~name:"dirty rotor = naive rotor (rounds and states)"
    ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 30))
    (fun case ->
      let d, nv = run_both Scheduler.Rotor case in
      d = nv)

let prop_dirty_equals_naive_with_faults =
  QCheck.Test.make ~name:"dirty = naive under mid-run faults" ~count:40
    QCheck.(triple (int_range 4 40) (int_range 0 30) (int_range 1 5))
    (fun (n, extra, at) ->
      let faults =
        [
          { Fault.at_round = at; action = Fault.Kill_edge (1, 2) };
          { Fault.at_round = at + 1; action = Fault.Kill_node (n - 1) };
        ]
      in
      let d, nv = run_both ~faults Scheduler.Synchronous (n, extra) in
      d = nv)

(* Direct graph mutation (outside the runner's fault pipeline) is picked
   up via the graph version counter: re-running after a surgical
   [remove_edge_between] must re-converge exactly like naive stepping. *)
let test_direct_mutation_reconciles () =
  let run ~dirty =
    let g = Gen.path 12 in
    let net =
      Network.init ~rng:(Prng.create ~seed:3) g
        (Sp.automaton ~sinks:[ 0 ] ~cap:12)
    in
    ignore (Runner.run ~dirty net);
    Graph.remove_edge_between g 5 6;
    let outcome = Runner.run ~dirty net in
    (outcome.Runner.rounds, final_states net)
  in
  let rd, sd = run ~dirty:true in
  let rn, sn = run ~dirty:false in
  Alcotest.(check int) "rounds equal" rn rd;
  Alcotest.(check (list (pair int int))) "states equal" sn sd

(* The scheduler must refuse the fast path for probabilistic automata:
   with a fixed seed, a run with [~dirty:true] must consume the rng
   exactly like a naive run.  Synchronous rounds take the fast path
   only through a runtime, so each run steps one.  The random walk's
   walker changes state every round, so its draws survive dirty
   stepping anyway; the coin flipper redraws at every node every round,
   and a node skipped as clean would shift its own stream. *)
let test_probabilistic_uses_naive () =
  let g = Gen.cycle 9 in
  let run aut ~dirty =
    let net = Network.init ~rng:(Prng.create ~seed:11) g aut in
    let sharded = Sharded_network.create ~shards:1 net in
    for r = 1 to 40 do
      ignore
        (Scheduler.round ~dirty ~sharded Scheduler.Synchronous net ~round:r)
    done;
    List.map snd (Network.states net)
  in
  let walk = Symnet_algorithms.Random_walk.automaton ~start:0 in
  let coin =
    {
      Symnet_core.Fssga.name = "coin";
      init = (fun _ _ -> false);
      step = (fun ~self:_ ~rng _ -> Prng.bool rng);
      deterministic = false;
    }
  in
  Alcotest.(check bool) "identical trajectories" true
    (run walk ~dirty:true = run walk ~dirty:false);
  Alcotest.(check bool) "identical coin flips" true
    (run coin ~dirty:true = run coin ~dirty:false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_csr_matches_reference;
    QCheck_alcotest.to_alcotest prop_dirty_equals_naive_sync;
    QCheck_alcotest.to_alcotest prop_dirty_equals_naive_rotor;
    QCheck_alcotest.to_alcotest prop_dirty_equals_naive_with_faults;
    Alcotest.test_case "direct mutation reconciles" `Quick
      test_direct_mutation_reconciles;
    Alcotest.test_case "probabilistic stays naive" `Quick
      test_probabilistic_uses_naive;
  ]
