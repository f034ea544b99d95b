(* Differential tests for synchronous rounds on a domain pool: the
   one-shard runtime, each round cut into equal slices over the pool,
   must be bit-identical to the reference [Network.sync_step] —
   per-round change flags, final states, activation counts, round counts
   and telemetry — at every domain count, for deterministic and
   probabilistic automata, with and without dirty-set scheduling, and
   under mid-run faults. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Domain_pool = Symnet_engine.Domain_pool
module Fault = Symnet_engine.Fault
module Chaos = Symnet_engine.Chaos
module Obs = Symnet_obs
module A = Symnet_algorithms

let domain_counts = [ 1; 2; 4 ]

let graph_of (n, extra) =
  Gen.random_connected (Prng.create ~seed:(n + (131 * extra))) ~n ~extra_edges:extra

let sp_automaton n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n
let census_automaton n = A.Census.automaton ~k:(A.Census.recommended_k n)

(* Drive [rounds] synchronous rounds and capture everything observable:
   the change flag of every round, the final states, and the activation
   count.  Without a pool, a naive run is the reference
   [Network.sync_step] and a dirty run the flat engine (the one-shard
   runtime); with one, the one-shard runtime spreads each round over
   the pool, as the runner's does.  Every round must leave the dirty set
   sound. *)
let drive ?pool ?(cutoff = 0) ?(shards = 1) ~rounds ~dirty net =
  (* tiny graphs: defeat the auto-sequential cutoff so the parallel code
     path is actually exercised *)
  Network.set_par_cutoff net cutoff;
  let step =
    match pool with
    | None when not dirty -> fun () -> Network.sync_step net
    | _ ->
        let runtime = Sharded.create ~shards net in
        fun () ->
          let changed = Sharded.step ?pool ~dirty runtime in
          Audit.check ~runtime net;
          changed
  in
  let flags = List.init rounds (fun _ -> step ()) in
  (flags, Network.states net, Network.activations net)

(* A dirty run steps fewer nodes than the reference, but changes the
   same states in the same rounds. *)
let check_par_equals_seq ~mk ~rounds ~dirty =
  let seq = drive ~rounds ~dirty (mk ()) in
  let same_rounds =
    (not dirty)
    ||
    let flags, states, _ = seq and rflags, rstates, _ = drive ~rounds ~dirty:false (mk ()) in
    flags = rflags && states = rstates
  in
  same_rounds
  && List.for_all
       (fun domains ->
         Domain_pool.with_pool ~domains (fun pool ->
             drive ~pool ~rounds ~dirty (mk ()) = seq))
       domain_counts

let case = QCheck.(triple (int_range 2 60) (int_range 0 60) (int_range 1 12))

let prop_deterministic_naive =
  QCheck.Test.make ~name:"parallel = sequential (deterministic, naive)"
    ~count:30 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_par_equals_seq ~rounds ~dirty:false ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:1) (Graph.copy g) (sp_automaton n)))

let prop_deterministic_dirty =
  QCheck.Test.make ~name:"parallel = sequential (deterministic, dirty)"
    ~count:30 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_par_equals_seq ~rounds ~dirty:true ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:2) (Graph.copy g) (sp_automaton n)))

let prop_probabilistic_naive =
  QCheck.Test.make ~name:"parallel = sequential (probabilistic census)"
    ~count:30 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_par_equals_seq ~rounds ~dirty:false ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:3) (Graph.copy g)
            (census_automaton n)))

(* A pool takes only the rounds that step at least [par_cutoff]
   positions.  With the cutoff inside the range of frontier sizes, a
   dirty run mixes pooled rounds with calling-domain ones (each pooled
   commit leaves the next frontier to a flag rescan), on one shard and
   on three, and must still match the reference round for round. *)
let prop_mixed_round_sizes =
  QCheck.Test.make ~name:"parallel = sequential (dirty, mixed round sizes)"
    ~count:30 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      let mk () =
        Network.init ~rng:(Prng.create ~seed:4) (Graph.copy g) (sp_automaton n)
      in
      let reference = drive ~rounds ~dirty:false (mk ()) in
      let same (flags, states, _) (rflags, rstates, _) =
        flags = rflags && states = rstates
      in
      List.for_all
        (fun (domains, shards) ->
          Domain_pool.with_pool ~domains (fun pool ->
              same
                (drive ~pool ~cutoff:(max 1 (n / 4)) ~shards ~rounds
                   ~dirty:true (mk ()))
                reference))
        [ (2, 1); (4, 1); (2, 3) ])

(* Full Runner.run with a mid-run fault schedule: outcome and final
   states must agree between ~domains:1 and every other count, for a
   deterministic and a probabilistic automaton. *)
let runner_case mk_aut (n, extra, seed) =
  let g = graph_of (n, extra) in
  let run domains =
    let g = Graph.copy g in
    let faults =
      Fault.random_edge_faults (Prng.create ~seed) g ~count:3 ~max_round:10
        ~keep_connected:false
    in
    let net = Network.init ~rng:(Prng.create ~seed) g (mk_aut n) in
    Network.set_par_cutoff net 0;
    let o = Runner.run ~faults ~max_rounds:200 ~domains net in
    (o.Runner.rounds, o.Runner.activations, o.Runner.quiesced, Network.states net)
  in
  let seq = run 1 in
  List.for_all (fun domains -> run domains = seq) domain_counts

let prop_runner_faults_deterministic =
  QCheck.Test.make ~name:"runner parallel = sequential (faults, shortest paths)"
    ~count:20
    QCheck.(triple (int_range 3 50) (int_range 0 50) (int_range 1 1000))
    (runner_case sp_automaton)

let prop_runner_faults_probabilistic =
  QCheck.Test.make ~name:"runner parallel = sequential (faults, census)"
    ~count:20
    QCheck.(triple (int_range 3 50) (int_range 0 50) (int_range 1 1000))
    (runner_case census_automaton)

(* Chaos processes — corruption, crash-restart, stochastic edge kills —
   must keep the run bit-identical at every domain count: the outcome
   and the full event trace, byte for byte. *)
let prop_runner_chaos_bit_identical =
  QCheck.Test.make ~name:"runner parallel = sequential (chaos, trace bytes)"
    ~count:15
    QCheck.(triple (int_range 3 40) (int_range 0 40) (int_range 1 1000))
    (fun (n, extra, seed) ->
      let g = graph_of (n, extra) in
      let run domains =
        let g = Graph.copy g in
        let chaos =
          Chaos.create ~seed
            [
              Chaos.Burst
                { at = 2; width = 2; count = 1; kind = Chaos.Corrupt;
                  target = Chaos.Uniform };
              Chaos.Burst
                { at = 3; width = 1; count = 1;
                  kind = Chaos.Crash { downtime = 2 };
                  target = Chaos.High_degree };
              Chaos.Bernoulli
                { p = 0.1; kind = Chaos.Kill_edge; target = Chaos.Uniform };
            ]
        in
        let buf = Buffer.create 1024 in
        let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
        let net = Network.init ~rng:(Prng.create ~seed) g (sp_automaton n) in
        Network.set_par_cutoff net 0;
        let o = Runner.run ~chaos ~max_rounds:30 ~recorder ~domains net in
        Obs.Recorder.close recorder;
        ( o.Runner.rounds,
          o.Runner.activations,
          o.Runner.transitions,
          o.Runner.faults_applied,
          o.Runner.faults_noop,
          Network.states net,
          Buffer.contents buf )
      in
      let seq = run 1 in
      List.for_all (fun domains -> run domains = seq) domain_counts)

(* With a recorder attached the commit phase serialises, so the whole
   metrics snapshot — counters, activation histograms, everything — must
   be identical too. *)
let test_recorder_metrics_identical () =
  let run domains =
    let g = Gen.random_connected (Prng.create ~seed:7) ~n:80 ~extra_edges:60 in
    let net =
      Network.init ~rng:(Prng.create ~seed:7) g (census_automaton 80)
    in
    Network.set_par_cutoff net 0;
    let recorder = Obs.Recorder.create () in
    let o = Runner.run ~max_rounds:100 ~recorder ~domains net in
    Obs.Recorder.close recorder;
    o.Runner.metrics
  in
  let seq = run 1 in
  Alcotest.(check bool) "snapshot at 2 domains" true (run 2 = seq);
  Alcotest.(check bool) "snapshot at 4 domains" true (run 4 = seq)

(* A long-lived pool reused across many rounds and networks keeps the
   equivalence (the pool carries no per-network state). *)
let test_pool_reuse () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      let ok = ref true in
      for seed = 1 to 5 do
        let g =
          Gen.random_connected (Prng.create ~seed) ~n:40 ~extra_edges:30
        in
        let mk () =
          Network.init ~rng:(Prng.create ~seed) (Graph.copy g)
            (census_automaton 40)
        in
        let seq = drive ~rounds:8 ~dirty:false (mk ()) in
        if drive ~pool ~rounds:8 ~dirty:false (mk ()) <> seq then ok := false
      done;
      Alcotest.(check bool) "5 networks on one pool" true !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_deterministic_naive;
    QCheck_alcotest.to_alcotest prop_deterministic_dirty;
    QCheck_alcotest.to_alcotest prop_probabilistic_naive;
    QCheck_alcotest.to_alcotest prop_mixed_round_sizes;
    QCheck_alcotest.to_alcotest prop_runner_faults_deterministic;
    QCheck_alcotest.to_alcotest prop_runner_faults_probabilistic;
    QCheck_alcotest.to_alcotest prop_runner_chaos_bit_identical;
    Alcotest.test_case "recorder metrics identical" `Quick
      test_recorder_metrics_identical;
    Alcotest.test_case "pool reuse across networks" `Quick test_pool_reuse;
  ]
