(* Differential tests for the sharded runtime: partitioning the graph
   into K shards with cross-shard message queues must be bit-identical
   to the reference [Network.sync_step] at every (shards, domains)
   combination — change flags, final states, activation/transition
   counts and telemetry — for deterministic and probabilistic automata,
   naive and dirty stepping, under chaos, across checkpoint/restore,
   through partition rebalances and external state writes.  Every dirty
   round must leave the dirty set sound ([Audit]). *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Domain_pool = Symnet_engine.Domain_pool
module Chaos = Symnet_engine.Chaos
module Obs = Symnet_obs
module A = Symnet_algorithms

let shard_counts = [ 1; 2; 3; 7 ]
let domain_counts = [ 1; 2; 4 ]

let graph_of (n, extra) =
  Gen.random_connected (Prng.create ~seed:(n + (131 * extra))) ~n ~extra_edges:extra

let sp_automaton n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n
let census_automaton n = A.Census.automaton ~k:(A.Census.recommended_k n)

let observe net flags =
  (flags, Network.states net, Network.activations net, Network.transitions net)

let drive_sharded ?pool ~shards ~rounds ~dirty net =
  Network.set_par_cutoff net 0;
  let runtime = Sharded.create ~shards net in
  observe net
    (List.init rounds (fun _ ->
         let changed = Sharded.step ?pool ~dirty runtime in
         Audit.check ~runtime net;
         changed))

(* Flat reference: [rounds] synchronous rounds, everything observable.
   Naive rounds are [Network.sync_step]; dirty ones the flat engine's
   (one shard, one domain), which must match [Network.sync_step] in
   everything but the activation count. *)
let drive_flat ~rounds ~dirty net =
  if dirty then drive_sharded ~shards:1 ~rounds ~dirty net
  else observe net (List.init rounds (fun _ -> Network.sync_step net))

let dirty_matches_reference ~mk ~rounds ~dirty flat =
  (not dirty)
  ||
  let flags, states, _, tr = flat
  and rflags, rstates, _, rtr = drive_flat ~rounds ~dirty:false (mk ()) in
  flags = rflags && states = rstates && tr = rtr

let check_sharded_equals_flat ~mk ~rounds ~dirty =
  let flat = drive_flat ~rounds ~dirty (mk ()) in
  dirty_matches_reference ~mk ~rounds ~dirty flat
  && List.for_all
       (fun shards ->
         List.for_all
           (fun domains ->
             Domain_pool.with_pool ~domains (fun pool ->
                 drive_sharded ~pool ~shards ~rounds ~dirty (mk ()) = flat))
           domain_counts)
       shard_counts

let case = QCheck.(triple (int_range 2 60) (int_range 0 60) (int_range 1 12))

let prop_deterministic_naive =
  QCheck.Test.make ~name:"sharded = flat (deterministic, naive)" ~count:20 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_sharded_equals_flat ~rounds ~dirty:false ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:1) (Graph.copy g) (sp_automaton n)))

let prop_deterministic_dirty =
  QCheck.Test.make ~name:"sharded = flat (deterministic, dirty)" ~count:20 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_sharded_equals_flat ~rounds ~dirty:true ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:2) (Graph.copy g) (sp_automaton n)))

let prop_probabilistic =
  QCheck.Test.make ~name:"sharded = flat (probabilistic census)" ~count:20 case
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      check_sharded_equals_flat ~rounds ~dirty:false ~mk:(fun () ->
          Network.init ~rng:(Prng.create ~seed:3) (Graph.copy g)
            (census_automaton n)))

(* Full Runner.run under chaos — corruption, crash-restart, stochastic
   edge kills — with a recorder attached: the outcome and the complete
   event trace must match the flat run byte for byte. *)
let prop_runner_chaos_trace_bytes =
  QCheck.Test.make ~name:"runner sharded = flat (chaos, trace bytes)"
    ~count:10
    QCheck.(triple (int_range 3 40) (int_range 0 40) (int_range 1 1000))
    (fun (n, extra, seed) ->
      let g = graph_of (n, extra) in
      let run ~domains ~shards =
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
        let o =
          Domain_pool.with_pool ~domains (fun pool ->
              Audit.finish (fun ~on_round ->
                  Runner.start ~chaos ~max_rounds:30 ~recorder ~pool ?shards
                    ~on_round net))
        in
        Obs.Recorder.close recorder;
        ( o.Runner.rounds,
          o.Runner.activations,
          o.Runner.transitions,
          o.Runner.faults_applied,
          o.Runner.faults_noop,
          Network.states net,
          Buffer.contents buf )
      in
      let flat = run ~domains:1 ~shards:None in
      List.for_all
        (fun shards ->
          List.for_all
            (fun domains -> run ~domains ~shards:(Some shards) = flat)
            domain_counts)
        shard_counts)

(* Checkpoint/restore through the sharded wrapper: a restored run must
   replay exactly the rounds the original run produced. *)
let prop_checkpoint_restore =
  QCheck.Test.make ~name:"sharded checkpoint/restore replays exactly"
    ~count:20
    QCheck.(quad (int_range 3 50) (int_range 0 50) (int_range 1 8) (int_range 1 8))
    (fun (n, extra, before, after) ->
      let g = graph_of (n, extra) in
      List.for_all
        (fun shards ->
          let net =
            Network.init ~rng:(Prng.create ~seed:5) (Graph.copy g)
              (census_automaton n)
          in
          Network.set_par_cutoff net 0;
          let sh = Sharded.create ~shards net in
          for _ = 1 to before do
            ignore (Sharded.step sh)
          done;
          let cp = Sharded.checkpoint sh in
          let tail () =
            List.init after (fun _ -> Sharded.step sh)
          in
          let first = (tail (), Network.states net) in
          Sharded.restore sh cp;
          let second = (tail (), Network.states net) in
          first = second)
        shard_counts)

(* Runner-level recovery rollback (Retry policy) restores the partition
   coherently: the run must match the flat engine's under an identical
   forced-rollback scenario. *)
let test_runner_retry_matches_flat () =
  let g = Gen.random_connected (Prng.create ~seed:11) ~n:60 ~extra_edges:40 in
  let run shards =
    let g = Graph.copy g in
    let net = Network.init ~rng:(Prng.create ~seed:11) g (census_automaton 60) in
    Network.set_par_cutoff net 0;
    let recovery =
      Runner.recovery ~patience:5 ~checkpoint_every:3
        (Runner.Retry { attempts = 2; reseed = false })
    in
    let o = Runner.run ~recovery ~max_rounds:40 ?shards net in
    ( o.Runner.rounds, o.Runner.activations, o.Runner.transitions,
      o.Runner.recoveries, o.Runner.gave_up, Network.states net )
  in
  let flat = run None in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "retry at %d shards" k)
        true
        (run (Some k) = flat))
    shard_counts

(* Rebalancing mid-run only moves the work assignment: states stay
   identical to the flat run even when a recut fires every round under
   heavily skewed load (a corner of the graph kept hot by faults). *)
let prop_rebalance_preserves_results =
  QCheck.Test.make ~name:"rebalance preserves bit-identity" ~count:20
    QCheck.(triple (int_range 6 50) (int_range 0 50) (int_range 2 10))
    (fun (n, extra, rounds) ->
      let g = graph_of (n, extra) in
      let mk () =
        Network.init ~rng:(Prng.create ~seed:4) (Graph.copy g) (sp_automaton n)
      in
      let flat = drive_flat ~rounds ~dirty:true (mk ()) in
      dirty_matches_reference ~mk ~rounds ~dirty:true flat
      && List.for_all
           (fun shards ->
             let net = mk () in
             Network.set_par_cutoff net 0;
             let sh =
               Sharded.create ~rebalance_every:1 ~imbalance:1.01 ~shards net
             in
             let flags =
               List.init rounds (fun i ->
                   (* an explicit recut every other round, on top of the
                      policy, exercises migration paths deterministically *)
                   if i mod 2 = 1 then Sharded.rebalance sh;
                   let changed = Sharded.step ~dirty:true sh in
                   Audit.check ~runtime:sh net;
                   changed)
             in
             observe net flags = flat)
           shard_counts)

(* External writes between rounds (set_state behind the wrapper's back)
   are picked up through the epoch counter: the sharded run must follow
   the flat run through the same mid-run writes, naive and dirty, on one
   and two domains.  The writes land in the owned slices directly (the
   shards keep no copy of their states), so only the ghosts need the
   resync; each round writes the automaton's init, a random label, or
   the node's own state back (an epoch move that changes nothing). *)
let prop_external_writes_resync =
  QCheck.Test.make ~name:"external set_state resyncs shards" ~count:20
    QCheck.(quad (int_range 3 40) (int_range 0 40) (int_range 2 8) bool)
    (fun (n, extra, rounds, dirty) ->
      let g = graph_of (n, extra) in
      let poke net i =
        let v = i * 7 mod n in
        let draw = Prng.split_key (Prng.create ~seed:(n + extra)) ~key:i in
        if Graph.is_live_node (Network.graph net) v then
          Network.set_state net v
            (match i mod 3 with
            | 0 ->
                (Network.automaton net).Symnet_core.Fssga.init
                  (Network.graph net) v
            | 1 ->
                { (Network.state net v) with
                  A.Shortest_paths.label = Prng.int draw (n + 2) }
            | _ -> Network.state net v)
      in
      let mk () =
        Network.init ~rng:(Prng.create ~seed:6) (Graph.copy g) (sp_automaton n)
      in
      let run ?pool ~shards ~dirty net =
        let step =
          if shards = 0 then fun () -> Network.sync_step net
          else begin
            let runtime = Sharded.create ~shards net in
            fun () ->
              let changed = Sharded.step ?pool ~dirty runtime in
              Audit.check ~runtime net;
              changed
          end
        in
        observe net
          (List.init rounds (fun i ->
               poke net i;
               step ()))
      in
      (* shards = 0: the reference [Network.sync_step] *)
      let flat = run ~shards:(if dirty then 1 else 0) ~dirty (mk ()) in
      (let f, st, _, tr = flat and rf, rst, _, rtr = run ~shards:0 ~dirty (mk ()) in
       f = rf && st = rst && tr = rtr)
      && List.for_all
        (fun shards ->
          List.for_all
            (fun domains ->
              Domain_pool.with_pool ~domains (fun pool ->
                  let net = mk () in
                  Network.set_par_cutoff net 0;
                  run ~pool ~shards ~dirty net = flat))
            [ 1; 2 ])
        shard_counts)

(* Streamed construction: the circulant stream round-trips its own
   degree oracle and runs sharded. *)
let test_circulant_stream_valid () =
  let g = Gen.graph_of_stream (Gen.circulant_stream ~n:30 ~offsets:[ 1; 3; 15 ]) in
  Alcotest.(check int) "node count" 30 (Graph.node_count g);
  (* degree 5: ±1, ±3, and the antipodal 15 contributes one *)
  Alcotest.(check int) "uniform degree" 5 (Graph.degree g 0);
  Alcotest.(check int) "edge count" (30 * 5 / 2) (Graph.edge_count g);
  (* and the engine accepts it sharded *)
  let net = Network.init ~rng:(Prng.create ~seed:9) g (census_automaton 30) in
  let sh = Sharded.create ~shards:7 net in
  for _ = 1 to 10 do
    ignore (Sharded.step sh)
  done;
  Alcotest.(check bool) "messages flowed" true (Sharded.messages sh > 0)

let test_shard_stats_cover_graph () =
  let g = Gen.grid ~rows:10 ~cols:10 in
  let net = Network.init ~rng:(Prng.create ~seed:10) g (sp_automaton 100) in
  let sh = Sharded.create ~shards:4 net in
  ignore (Sharded.step sh);
  let stats = Sharded.shard_stats sh in
  Alcotest.(check int) "four shards" 4 (Array.length stats);
  let covered =
    Array.for_all
      (fun s -> s.Sharded.ss_hi >= s.Sharded.ss_lo && s.Sharded.ss_ghosts >= 0)
      stats
  in
  Alcotest.(check bool) "ranges well formed" true covered;
  Alcotest.(check int) "ranges partition the nodes" 100
    (Array.fold_left (fun a s -> a + (s.Sharded.ss_hi - s.Sharded.ss_lo)) 0 stats);
  Alcotest.(check bool) "exchange share in [0,1]" true
    (let s = Sharded.exchange_share sh in
     s >= 0. && s <= 1.)

let test_create_validates () =
  let g = Gen.path 5 in
  let net = Network.init ~rng:(Prng.create ~seed:1) g (sp_automaton 5) in
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Sharded_network.create: shards >= 1 required")
    (fun () -> ignore (Sharded.create ~shards:0 net));
  let net2 = Network.init ~rng:(Prng.create ~seed:1) (Gen.path 5) (sp_automaton 5) in
  Alcotest.check_raises "asynchronous scheduler rejected"
    (Invalid_argument "Runner.run: shards requires the synchronous scheduler")
    (fun () ->
      ignore
        (Runner.run ~scheduler:Symnet_engine.Scheduler.Rotor ~shards:2
           ~max_rounds:5 net2))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_deterministic_naive;
    QCheck_alcotest.to_alcotest prop_deterministic_dirty;
    QCheck_alcotest.to_alcotest prop_probabilistic;
    QCheck_alcotest.to_alcotest prop_runner_chaos_trace_bytes;
    QCheck_alcotest.to_alcotest prop_checkpoint_restore;
    QCheck_alcotest.to_alcotest prop_rebalance_preserves_results;
    QCheck_alcotest.to_alcotest prop_external_writes_resync;
    Alcotest.test_case "runner retry rollback matches flat" `Quick
      test_runner_retry_matches_flat;
    Alcotest.test_case "circulant stream validates" `Quick
      test_circulant_stream_valid;
    Alcotest.test_case "shard stats cover the graph" `Quick
      test_shard_stats_cover_graph;
    Alcotest.test_case "creation validation" `Quick test_create_validates;
  ]
