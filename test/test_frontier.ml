(* The frontier machinery that makes a dirty chaos round cost its
   frontier and its faults instead of n: the graph's liveness rank
   index, the chaos victim picks it serves, and the network's dirty
   worklist with its rescan fallbacks.  Each property checks the fast
   path against the straightforward O(n) computation it replaced. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Fault = Symnet_engine.Fault
module Chaos = Symnet_engine.Chaos
module Domain_pool = Symnet_engine.Domain_pool
module Id_sort = Symnet_engine.Id_sort
module Fssga = Symnet_core.Fssga
module Obs = Symnet_obs
module Sp = Symnet_algorithms.Shortest_paths

let graph_of (n, extra) =
  Gen.random_connected (Prng.create ~seed:(n + (97 * extra))) ~n ~extra_edges:extra

(* --- liveness rank index ------------------------------------------------ *)

let index_agrees g =
  let live = Array.of_list (Graph.nodes g) in
  Array.length live = Graph.node_count g
  && Array.for_all Fun.id (Array.mapi (fun k v -> Graph.nth_live_node g k = v) live)

(* Random interleavings of deletions, revivals, snapshot + restore,
   copies and queries: a query builds the index lazily, so later
   mutations exercise both the not-yet-built and the incremental
   paths. *)
let prop_nth_live_node =
  QCheck.Test.make ~name:"nth_live_node = k-th of nodes under mutations"
    ~count:200
    QCheck.(
      triple (int_range 1 60) (int_range 0 40)
        (list_of_size Gen.(0 -- 40) (pair (int_range 0 5) small_nat)))
    (fun (n, extra, ops) ->
      let g = ref (graph_of (n, extra)) in
      let prev = ref !g in
      let snap = ref None in
      let ok = ref true in
      let check () = ok := !ok && index_agrees !g && index_agrees !prev in
      List.iter
        (fun (op, x) ->
          let v = x mod n in
          match op with
          | 0 -> Graph.remove_node !g v
          | 1 -> Graph.revive_node !g v
          | 2 -> snap := Some (Graph.snapshot !g)
          | 3 -> Option.iter (Graph.restore !g) !snap
          | 4 ->
              prev := !g;
              g := Graph.copy !g
          | _ -> check ())
        ops;
      check ();
      !ok)

let test_nth_live_node_range () =
  let g = Gen.cycle 5 in
  Graph.remove_node g 2;
  Alcotest.(check (list int)) "ranks skip the dead node" [ 0; 1; 3; 4 ]
    (List.init 4 (Graph.nth_live_node g));
  Alcotest.check_raises "rank = live count"
    (Invalid_argument "Graph.nth_live_node: rank 4 out of range") (fun () ->
      ignore (Graph.nth_live_node g 4))

(* --- chaos victim selection --------------------------------------------- *)

(* The pre-index victim selection, kept here as the oracle: materialise
   the ascending live nodes and let [Prng.choose] pick, with the same
   keyed streams [Chaos.actions_due] documents. *)
let oracle_actions ~seed ~processes ~round g =
  let pick_uniform rng =
    let live = Array.of_list (Graph.nodes g) in
    if Array.length live = 0 then None else Some (Prng.choose rng live)
  in
  let pick rng = function
    | Chaos.Uniform -> pick_uniform rng
    | Chaos.Critical f -> (
        let live = Array.of_list (List.filter (Graph.is_live_node g) (f ~round)) in
        match Array.length live with
        | 0 -> pick_uniform rng
        | _ -> Some (Prng.choose rng live))
    | Chaos.High_degree -> invalid_arg "oracle: uniform and critical only"
  in
  let action rng ~kind ~target =
    match pick rng target with
    | None -> None
    | Some v -> (
        match kind with
        | Chaos.Kill_node -> Some (Fault.Kill_node v)
        | Chaos.Corrupt -> Some (Fault.Corrupt_state v)
        | Chaos.Crash { downtime } -> Some (Fault.Crash_restart { node = v; downtime })
        | Chaos.Kill_edge -> (
            let inc = Array.of_list (Graph.incident g v) in
            match Array.length inc with
            | 0 -> None
            | _ ->
                let e = Prng.choose rng inc in
                Some (Fault.Kill_edge (e.Graph.u, e.Graph.v))))
  in
  let base = Prng.create ~seed in
  List.concat
    (List.mapi
       (fun i p ->
         let rng () = Prng.split_key (Prng.split_key base ~key:(i + 1)) ~key:round in
         let shoot rng ~kind ~target = Option.to_list (action rng ~kind ~target) in
         match p with
         | Chaos.Burst { at; width; count; kind; target } ->
             if round >= at && round < at + width then
               let rng = rng () in
               List.concat (List.init count (fun _ -> shoot rng ~kind ~target))
             else []
         | Chaos.Bernoulli { p; kind; target } ->
             let rng = rng () in
             if Prng.bernoulli rng ~p then shoot rng ~kind ~target else []
         | Chaos.Periodic _ -> invalid_arg "oracle: bursts and bernoulli only")
       processes)

let kinds =
  [| Chaos.Corrupt; Chaos.Crash { downtime = 2 }; Chaos.Kill_node; Chaos.Kill_edge |]

(* Victims must match the oracle round after round while the graph
   loses and regains nodes between rounds (the index is built by the
   first pick and updated after).  The critical provider names a fixed
   handful of nodes, so once they are all dead the uniform fallback
   runs. *)
let prop_victims_match_oracle =
  QCheck.Test.make ~name:"actions_due victims = materialised-array oracle"
    ~count:100
    QCheck.(
      quad (int_range 2 60) (int_range 0 40) (int_range 0 1000)
        (list_of_size Gen.(1 -- 25) (pair (int_range 0 2) small_nat)))
    (fun (n, extra, seed, churn) ->
      let g = graph_of (n, extra) in
      let critical_set = [ 0; n / 2; n - 1 ] in
      let processes =
        [
          Chaos.Burst
            { at = 1; width = 1000; count = 2; kind = kinds.(seed mod 4);
              target = Chaos.Uniform };
          Chaos.Bernoulli
            { p = 0.5; kind = kinds.((seed + 1) mod 4); target = Chaos.Uniform };
          Chaos.Burst
            { at = 1; width = 1000; count = 1; kind = kinds.((seed + 2) mod 4);
              target = Chaos.Critical (fun ~round:_ -> critical_set) };
        ]
      in
      let c = Chaos.create ~seed processes in
      List.for_all
        (fun (round, (op, x)) ->
          let same =
            Chaos.actions_due c ~round g = oracle_actions ~seed ~processes ~round g
          in
          (match op with
          | 0 -> Graph.remove_node g (x mod n)
          | 1 -> Graph.revive_node g (x mod n)
          | _ -> List.iter (Graph.remove_node g) critical_set);
          same)
        (List.mapi (fun i op -> (i + 1, op)) churn))

(* --- dirty worklist ------------------------------------------------------ *)

let sp n = Sp.automaton ~sinks:[ 0 ] ~cap:n

(* Runs a dirty round with a recorder capturing activation events, so
   the result is exactly the frontier the round stepped, in step
   order. *)
let stepped_by round_fn net =
  let seen = ref [] in
  let sink =
    Obs.Events.fn (function
      | Obs.Events.Activation { node; _ } -> seen := node :: !seen
      | _ -> ())
  in
  Network.set_recorder net (Obs.Recorder.create ~sink ());
  ignore (round_fn ());
  Network.set_recorder net Obs.Recorder.null;
  List.rev !seen

let live_flagged net =
  Network.reconcile_graph net;
  let g = Network.graph net and dirty = Network.raw_dirty net in
  List.filter (fun v -> dirty.(v)) (Graph.nodes g)

(* Drive a flat (one-shard) and a 3-shard network through the same
   random mix of every flag-writing path — marks, state writes, crashes
   reported the runner's way, revivals, unreported deletions,
   reconciles, checkpoint and restore, dirty rotor passes — and check
   that each dirty round steps exactly the ascending live flagged nodes
   and leaves the dirty set sound.  Graphs reach 200
   nodes, past the size where a dense worklist overflows and is
   rescanned instead of sorted. *)
let prop_frontier_is_live_flagged =
  QCheck.Test.make ~name:"dirty round steps exactly the live flagged nodes"
    ~count:100
    QCheck.(
      triple (int_range 2 200) (int_range 0 60)
        (list_of_size Gen.(1 -- 50) (pair (int_range 0 10) small_nat)))
    (fun (n, extra, ops) ->
      let g = graph_of (n, extra) in
      let mk () = Network.init ~rng:(Prng.create ~seed:5) (Graph.copy g) (sp n) in
      let flat = mk () and shn = mk () in
      (* An unreported deletion that a later acknowledgement swallows
         (op 5, then op 3 or 4 before any reconcile) leaves the dirty
         set knowingly unsound; the oracle is checked until then. *)
      let unreported = ref false and swallowed = ref false in
      let saved = ref None (* [unreported] at the last checkpoint *) in
      let round net runtime () =
        let changed = Sharded.step ~dirty:true runtime in
        if not !swallowed then Audit.check ~runtime net;
        changed
      in
      let nets =
        [
          (flat, round flat (Sharded.create ~shards:1 flat));
          (shn, round shn (Sharded.create ~shards:3 shn));
        ]
      in
      let cps = ref [] in
      let ok = ref true in
      List.iter (fun (_, round) -> ignore (round ())) nets;
      List.iter
        (fun (op, x) ->
          let v = x mod n in
          (match op with
          | 3 | 4 -> if !unreported then swallowed := true
          | 5 -> unreported := true
          | 6 | 10 -> unreported := false
          | 7 -> saved := Some !unreported
          | 8 -> Option.iter (fun u -> unreported := u) !saved
          | _ -> ());
          List.iter
            (fun (net, round) ->
              let g = Network.graph net in
              let init v = (Network.automaton net).Fssga.init g v in
              match op with
              | 0 -> Network.mark_dirty net v
              | 1 -> Network.mark_dirty_around net v
              | 2 -> Network.set_state net v (Network.state net ((v + 1) mod n))
              | 3 ->
                  Network.mark_dirty_around net v;
                  Graph.remove_node g v;
                  Network.ack_graph_mutations net
              | 4 ->
                  Graph.revive_node g v;
                  Network.set_state net v (init v);
                  Network.ack_graph_mutations net
              | 5 -> Graph.remove_node g v
              | 6 -> Network.reconcile_graph net
              | 7 -> cps := (net, Network.checkpoint net) :: !cps
              | 8 -> (
                  match List.assq_opt net !cps with
                  | Some cp -> Network.restore net cp
                  | None -> ())
              | 9 -> ignore (Network.rotor_step_dirty net)
              | _ ->
                  let want = live_flagged net in
                  ok := !ok && stepped_by round net = want)
            nets)
        ops;
      List.iter
        (fun (net, round) -> ok := !ok && stepped_by round net = live_flagged net)
        nets;
      !ok && Network.states flat = Network.states shn)

(* The frontier's bitmap sort against [List.sort]: several random
   distinct id sets (both ends of the range included now and then)
   through one scratch, so each sort also checks that the previous one
   left the bitmap cleared. *)
let prop_id_sort =
  QCheck.Test.make ~name:"bitmap id sort = List.sort, scratch reusable"
    ~count:200
    QCheck.(
      pair (int_range 1 70_000) (list_of_size Gen.(1 -- 4) (pair small_nat int)))
    (fun (n, sets) ->
      let sorter = Id_sort.create ~n in
      List.for_all
        (fun (len, seed) ->
          let r = Prng.create ~seed in
          let len = min n (len * 7) in
          let ids = Array.to_list (Array.sub (Prng.permutation r n) 0 len) in
          let ids = if seed land 1 = 0 then 0 :: (n - 1) :: ids else ids in
          let a = Array.of_list (List.sort_uniq compare ids) in
          Prng.shuffle r a;
          let want = List.sort compare (Array.to_list a) in
          let buf = Array.append a [| -1; -2 |] in
          Id_sort.sort sorter buf (Array.length a);
          Array.to_list (Array.sub buf 0 (Array.length a)) = want
          && buf.(Array.length a) = -1
          && buf.(Array.length a + 1) = -2)
        sets)

(* Parallel commits cannot queue (their re-marks would race), so a
   pooled run without a recorder rescans the flags every round.  That
   fallback must reproduce the single-domain run exactly — and must
   actually be the path taken. *)
let test_parallel_fallback_matches () =
  let g = Gen.grid ~rows:12 ~cols:12 in
  let n = Graph.original_size g in
  let chaos =
    match
      Chaos.of_spec ~seed:3
        "burst:at=3:count=2:kind=corrupt;burst:at=5:count=2:kind=crash:downtime=2;\
         burst:at=9:count=1:kind=kill_node"
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let run ?pool ?shards () =
    let net = Network.init ~rng:(Prng.create ~seed:9) (Graph.copy g) (sp n) in
    Network.set_par_cutoff net 0;
    let o = Runner.run ?pool ?shards ~chaos net in
    ( (o.Runner.rounds, o.Runner.activations, o.Runner.transitions,
       o.Runner.faults_applied, Network.states net),
      Network.frontier_rescans net )
  in
  List.iter
    (fun shards ->
      let seq, seq_rescans = run ?shards () in
      let par, par_rescans =
        Domain_pool.with_pool ~domains:2 (fun pool -> run ~pool ?shards ())
      in
      let label =
        match shards with None -> "flat" | Some k -> Printf.sprintf "%d shards" k
      in
      Alcotest.(check bool) (label ^ ": 2 domains = 1 domain") true (seq = par);
      let rounds = match seq with r, _, _, _, _ -> r in
      Alcotest.(check bool)
        (Printf.sprintf "%s: rescans %d (1 domain) < %d (2 domains) = rounds %d"
           label seq_rescans par_rescans rounds)
        true
        (seq_rescans < par_rescans && par_rescans = rounds))
    [ None; Some 3 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_nth_live_node;
    Alcotest.test_case "nth_live_node range" `Quick test_nth_live_node_range;
    QCheck_alcotest.to_alcotest prop_victims_match_oracle;
    QCheck_alcotest.to_alcotest prop_frontier_is_live_flagged;
    Alcotest.test_case "pooled rescan fallback = 1 domain" `Quick
      test_parallel_fallback_matches;
    QCheck_alcotest.to_alcotest prop_id_sort;
  ]
