(* E18 — sharded network runtime.  The graph is partitioned into K
   contiguous CSR shards that communicate exclusively through explicit
   double-buffered message queues (the paper's S16 bounded channels);
   a round is a parallel shard-local read, a commit, and a
   deterministic (source shard, sequence)-ordered exchange.  This
   experiment measures rounds/sec across (shards, domains) configs
   against the flat engine, the exchange phase's share of the round
   (the partition's communication overhead — the acceptance bar is
   < 50% on a >= 100k-node workload), cross-shard message volume, and
   the streamed out-of-core construction path for graphs too large to
   build from edge lists.  Bit-identity to the flat engine is asserted
   on every row. *)

open Bench_util
module Prng = Symnet_prng.Prng
module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Domain_pool = Symnet_engine.Domain_pool
module Jsonx = Symnet_obs.Jsonx
module A = Symnet_algorithms

let sp_net g =
  let n = Graph.original_size g in
  Network.init ~rng:(rng 2) g (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n)

let census_net g =
  let n = Graph.node_count g in
  Network.init ~rng:(rng 1) g (A.Census.automaton ~k:(A.Census.recommended_k n))

let run ?(smoke = false) () =
  section "E18 sharded network runtime (S16 channels)"
    "partitioned CSR shards + cross-shard message queues vs the flat\n\
     engine: rounds/sec, exchange-phase share, message volume; every\n\
     row is checked bit-identical to the flat run";
  let side = if smoke then 20 else 317 (* 100,489 nodes *) in
  let rounds = if smoke then 5 else 20 in
  let configs = [ (1, 1); (2, 1); (4, 1); (4, 2); (4, 4) ] in
  row "  %-20s %7s %7s %12s %9s %7s %10s  %s\n" "workload" "shards" "domains"
    "rounds/s" "vs flat" "exch%" "messages" "identical";
  let all_ok = ref true in
  let share_100k = ref 0. in
  let bench_workload workload mk =
    (* flat sequential baseline *)
    let flat_net = mk () in
    ignore (Network.sync_step flat_net);
    let flat_changed = Array.make rounds false in
    let t0 = Unix.gettimeofday () in
    for i = 0 to rounds - 1 do
      flat_changed.(i) <- Network.sync_step flat_net
    done;
    let flat_dt = Unix.gettimeofday () -. t0 in
    let flat_states = Network.states flat_net in
    let flat_acts = Network.activations flat_net in
    let n = Graph.node_count (Network.graph flat_net) in
    List.iter
      (fun (shards, domains) ->
        Domain_pool.with_pool ~domains (fun pool ->
            let net = mk () in
            let sh = Sharded.create ~shards net in
            ignore (Sharded.step ~pool sh);
            let changed = Array.make rounds false in
            let t0 = Unix.gettimeofday () in
            for i = 0 to rounds - 1 do
              changed.(i) <- Sharded.step ~pool sh
            done;
            let dt = Unix.gettimeofday () -. t0 in
            let identical =
              changed = flat_changed
              && Network.states net = flat_states
              && Network.activations net = flat_acts
            in
            if not identical then all_ok := false;
            let share = Sharded.exchange_share sh in
            if (not smoke) && shards > 1 && share > !share_100k then
              share_100k := share;
            row "  %-20s %7d %7d %12.1f %8.2fx %6.1f%% %10d  %s\n" workload
              shards domains
              (float_of_int rounds /. dt)
              (flat_dt /. dt)
              (100. *. share)
              (Sharded.messages sh)
              (if identical then "yes" else "DIVERGENT");
            metric_row ~experiment:"e18"
              [
                ("workload", Jsonx.String workload);
                ("n", Jsonx.Int n);
                ("shards", Jsonx.Int shards);
                ("domains", Jsonx.Int domains);
                ("rounds_per_sec", Jsonx.Float (float_of_int rounds /. dt));
                ("speedup_vs_flat", Jsonx.Float (flat_dt /. dt));
                ("exchange_share", Jsonx.Float share);
                ("messages", Jsonx.Int (Sharded.messages sh));
                ("identical", Jsonx.Bool identical);
              ]))
      configs
  in
  bench_workload "e03_shortest_paths" (fun () ->
      sp_net (Gen.grid ~rows:side ~cols:side));
  bench_workload "e01_census" (fun () ->
      census_net
        (Gen.random_connected (rng 42)
           ~n:(if smoke then 400 else 100_000)
           ~extra_edges:(if smoke then 400 else 100_000)));
  (* Streamed out-of-core construction: a circulant graph built straight
     from its adjacency formula through Graph.of_adjacency — no edge
     list, no dedup table — then sharded.  This is the construction path
     towards >= 10M-node runs; the bench keeps it modest so it finishes
     in CI, and reports nodes/sec of construction. *)
  let stream_n = if smoke then 10_000 else 2_000_000 in
  (* settle the heap the rows above leave, so the build's time does not
     depend on how much of their garbage the collector still owes *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let g = Gen.graph_of_stream (Gen.circulant_stream ~n:stream_n ~offsets:[ 1; 2; 5 ]) in
  let build_s = Unix.gettimeofday () -. t0 in
  let net = sp_net g in
  let sh = Sharded.create ~shards:8 net in
  let t0 = Unix.gettimeofday () in
  let stream_rounds = if smoke then 5 else 10 in
  for _ = 1 to stream_rounds do
    ignore (Sharded.step sh)
  done;
  let run_s = Unix.gettimeofday () -. t0 in
  row
    "  streamed circulant n=%d: built in %.2fs (%.0f nodes/s), %d sharded \
     rounds in %.2fs\n"
    stream_n build_s
    (float_of_int stream_n /. build_s)
    stream_rounds run_s;
  metric_row ~experiment:"e18"
    [
      ("workload", Jsonx.String "streamed_circulant");
      ("n", Jsonx.Int stream_n);
      ("build_seconds", Jsonx.Float build_s);
      ("nodes_per_sec", Jsonx.Float (float_of_int stream_n /. build_s));
      ("rounds", Jsonx.Int stream_rounds);
      ("run_seconds", Jsonx.Float run_s);
    ];
  if not smoke then
    row "  max exchange share at >= 100k nodes: %.1f%% (acceptance: < 50%%)\n"
      (100. *. !share_100k);
  let share_ok = smoke || !share_100k < 0.5 in
  if not share_ok then row "  FAIL exchange share >= 50%%\n";
  if not (!all_ok && share_ok) then exit 1
