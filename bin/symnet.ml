(* symnet — run the paper's algorithms on generated graphs from the
   command line.

     symnet two-colouring --graph cycle:9
     symnet census        --graph random:200,100 --seed 3
     symnet bfs           --graph grid:6x8 --target 47
     symnet election      --graph random:64,32 --watch
     symnet traversal     --graph grid:5x5
     symnet tourist       --graph lollipop:10,20
     symnet bridges       --graph barbell:5
     symnet shortest-paths --graph grid:6x8 --sinks 0,47
     symnet random-walk   --graph petersen --moves 50
     symnet firing-squad  --graph path:40
     symnet sensitivity   --graph random:24,12
     symnet chaos         --graph random:32,16 --trials 5
     symnet shortest-paths --graph grid:6x8 --chaos bernoulli:p=0.05:kind=crash
*)

open Cmdliner
module Prng = Symnet_prng.Prng
module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Spec = Symnet_graph.Spec
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Trace = Symnet_engine.Trace
module Semilattice = Symnet_core.Semilattice
module Stab = Symnet_sensitivity.Stabilization
module Obs = Symnet_obs
module A = Symnet_algorithms

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let graph_arg =
  let doc =
    "Graph to run on.  Forms: "
    ^ String.concat "; " Spec.known_forms
  in
  Arg.(value & opt string "random:32,16" & info [ "g"; "graph" ] ~docv:"SPEC" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let rounds_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "max-rounds" ] ~docv:"N" ~doc:"Round budget.")

let watch_arg =
  Arg.(value & flag & info [ "w"; "watch" ] ~doc:"Print the network each round.")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Spread synchronous rounds of 10,000 or more stepped nodes over \
           $(docv) domains (0 = one per recommended core).  The run is \
           bit-identical at every count.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition the graph into $(docv) contiguous shards communicating \
           through explicit message queues (the sharded runtime), with rounds \
           parallelised over --domains.  Bit-identical to the flat engine at \
           every (shards, domains) combination; 1 = flat engine.")

(* 1 means the flat engine — only an explicit K > 1 engages the sharded
   runtime (K = 1 sharded is valid but only interesting to tests). *)
let shards_opt k =
  if k < 1 then begin
    prerr_endline "--shards must be >= 1";
    exit 2
  end
  else if k = 1 then None
  else Some k

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Inject stochastic faults during the run.  $(docv) is \
           PROC(;PROC)* with PROC = name(:key=value)*.  Names: \
           $(b,bernoulli) (key p), $(b,burst) (keys at, width, count), \
           $(b,periodic) (keys every, phase).  Common keys: kind \
           (kill_node|kill_edge|corrupt|crash), downtime, target \
           (uniform|degree|critical — critical aims at the algorithm's \
           sensitivity set, e.g. the sinks of shortest-paths).  Example: \
           'burst:at=5:count=3:kind=corrupt;bernoulli:p=0.02:kind=crash'.  \
           A $(b,link=)<drop|dup|reorder|delay> process faults the sharded \
           runtime's cross-shard channels instead of nodes (needs --shards \
           >= 2): keys p, target (all|cut — cut hits only channels crossing \
           bridge edges), window (reorder), rounds (delay), and the \
           channel-wide flags reliable (seq/ack/retransmit exchange), cap \
           (in-flight bound) and backoff.  ',' is accepted for ':' inside a \
           link segment.  Example: \
           'link=drop:p=0.05:reliable=true;link=reorder:window=4:p=0.1'.")

let sm_backend_arg =
  let backend =
    Arg.enum [ ("seq", `Seq); ("tree", `Tree); ("incr", `Incr) ]
  in
  Arg.(
    value
    & opt backend `Seq
    & info [ "sm-backend" ] ~docv:"BACKEND"
        ~doc:
          "SM evaluation backend for digest-capable algorithms: $(b,seq) \
           rescans every view each round, $(b,tree) keeps a per-node \
           summary segment tree rebuilt each round, $(b,incr) updates the \
           trees incrementally — O(log deg) per changed neighbour.  All \
           three are bit-identical; this is a pure performance switch.")

(* [critical] is the algorithm's χ set (its sensitive nodes) for
   [target=critical] specs: the sinks for shortest-paths, the originator
   for bfs, and the empty set for the 0-sensitive algorithms (census,
   two-colouring) — where Chaos falls back to uniform, which is exactly
   the paper's claim that no node is more critical than another. *)
let chaos_of ?critical seed = function
  | None -> None
  | Some spec -> (
      match Chaos.of_spec ~seed ?critical spec with
      | Ok c -> Some c
      | Error m ->
          prerr_endline m;
          exit 2)

let make_graph seed spec =
  let rng = Prng.create ~seed:(seed * 7919) in
  match Spec.parse rng spec with
  | Ok g -> g
  | Error m ->
      prerr_endline m;
      exit 2

let report_outcome (o : Runner.outcome) =
  Printf.printf "rounds: %d   activations: %d   %s\n" o.Runner.rounds
    o.Runner.activations
    (if o.Runner.quiesced then "quiesced"
     else if o.Runner.stopped then "stopped"
     else if o.Runner.gave_up then "gave up"
     else "budget exhausted");
  if o.Runner.faults_applied > 0 || o.Runner.faults_noop > 0
     || o.Runner.recoveries > 0
  then
    Printf.printf "faults: %d (%d no-op)   recoveries: %d\n"
      o.Runner.faults_applied o.Runner.faults_noop o.Runner.recoveries

(* --- telemetry flags shared by the run subcommands ------------------ *)

let metrics_arg =
  let fmt = Arg.enum [ ("json", `Json); ("csv", `Csv) ] in
  Arg.(
    value
    & opt (some fmt) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print a metrics document ($(b,json) or $(b,csv)) instead of the \
           human-readable report.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSONL event trace of the run to $(docv).")

let recorder_of metrics trace_out =
  match (metrics, trace_out) with
  | None, None -> Obs.Recorder.null
  | _ ->
      let sink =
        match trace_out with
        | Some path -> (
            try Obs.Events.file path
            with Sys_error msg ->
              prerr_endline msg;
              exit 2)
        | None -> Obs.Events.null
      in
      Obs.Recorder.create ~sink ()

let report_metrics metrics recorder =
  Obs.Recorder.close recorder;
  match (metrics, Obs.Recorder.snapshot recorder) with
  | Some `Json, Some snap ->
      print_endline (Obs.Jsonx.to_string (Obs.Metrics.to_json snap))
  | Some `Csv, Some snap -> print_string (Obs.Metrics.to_csv snap)
  | _ -> ()

(* With --metrics the machine-readable document is the whole output, so
   the human-readable report lines are suppressed. *)
let unless_metrics metrics f = if metrics = None then f ()

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let two_colouring graph seed max_rounds domains shards watch chaos_spec metrics
    trace_out =
  let g = make_graph seed graph in
  let chaos = chaos_of ~critical:(fun ~round:_ -> []) seed chaos_spec in
  let net = Network.init ~rng:(Prng.create ~seed) g (A.Two_colouring.automaton ~seed:0) in
  let to_char = function
    | A.Two_colouring.Blank -> '_'
    | A.Two_colouring.Red -> 'R'
    | A.Two_colouring.Blue -> 'b'
    | A.Two_colouring.Failed -> 'X'
  in
  let recorder = recorder_of metrics trace_out in
  let o =
    if watch then
      Trace.watch ~max_rounds ~recorder ?chaos ~to_char ~out:print_endline net
    else
      Runner.run ~max_rounds ~recorder ~domains
        ?shards:(shards_opt shards) ?chaos net
  in
  unless_metrics metrics (fun () ->
      report_outcome o;
      print_endline
        (match A.Two_colouring.verdict net with
        | `Bipartite -> "verdict: bipartite"
        | `Odd_cycle -> "verdict: not bipartite"
        | `Undecided -> "verdict: undecided"));
  report_metrics metrics recorder

(* Drive the digest cache with a plain synchronous loop (the runner's
   fault pipeline does not apply; chaos is rejected by the callers).
   [?pool] shards tree builds, bit-identical at every domain count.
   Rounds are numbered from 1 and run_start/run_end bracket the loop so
   the event trace is byte-identical to a fault-free Runner.run of the
   equivalent classic automaton.  Returns (rounds, quiesced). *)
let drive_digest ~recorder ~max_rounds ~domains ~mode dg =
  let g = Network.graph (Network.digest_network dg) in
  Obs.Recorder.run_start recorder ~nodes:(Graph.node_count g)
    ~edges:(Graph.edge_count g) ~scheduler:"synchronous";
  let run pool =
    let round = ref 0 in
    let changed = ref true in
    while !changed && !round < max_rounds do
      incr round;
      Obs.Recorder.round_start recorder ~round:!round;
      changed := Network.digest_step ?pool ~mode dg;
      Obs.Recorder.round_end recorder ~round:!round ~changed:!changed
    done;
    (!round, not !changed)
  in
  let rounds, quiesced =
    if domains = 1 then run None
    else
      let domains =
        if domains = 0 then Symnet_engine.Domain_pool.recommended ()
        else domains
      in
      Symnet_engine.Domain_pool.with_pool ~domains (fun pool ->
          run (Some pool))
  in
  Obs.Recorder.run_end recorder ~round:rounds
    ~reason:(if quiesced then "quiesced" else "budget");
  (rounds, quiesced)

let reject_chaos_with_digest chaos_spec =
  if chaos_spec <> None then begin
    prerr_endline "--chaos is not supported with --sm-backend tree|incr";
    exit 2
  end

let census graph seed max_rounds domains shards chaos_spec metrics trace_out
    backend =
  let g = make_graph seed graph in
  let n = Graph.node_count g in
  let k = A.Census.recommended_k n in
  let recorder = recorder_of metrics trace_out in
  (match backend with
  | `Seq ->
      let chaos = chaos_of ~critical:(fun ~round:_ -> []) seed chaos_spec in
      let net = Network.init ~rng:(Prng.create ~seed) g (A.Census.automaton ~k) in
      let o =
        Runner.run ~max_rounds ~recorder ~domains
          ?shards:(shards_opt shards) ?chaos net
      in
      unless_metrics metrics (fun () ->
          report_outcome o;
          match
            List.filter_map (fun (_, s) -> A.Census.estimate s) (Network.states net)
          with
          | e :: _ ->
              Printf.printf "estimate: %.0f   truth: %d   ratio: %.2f\n" e n
                (e /. float_of_int n)
          | [] -> print_endline "no estimate")
  | (`Tree | `Incr) as mode ->
      (* Chaos needs the runner's fault pipeline; fault correctness of
         the digest cache is covered by the test suite. *)
      reject_chaos_with_digest chaos_spec;
      if shards > 1 then begin
        prerr_endline "--shards is not supported with --sm-backend tree|incr";
        exit 2
      end;
      let net =
        Network.init ~rng:(Prng.create ~seed) g
          (Symnet_core.Sm_digest.to_fssga (A.Census.digest ~k))
      in
      Network.set_recorder net recorder;
      let dg = Network.digest_of net (A.Census.digest ~k) in
      let rounds, quiesced =
        drive_digest ~recorder ~max_rounds ~domains ~mode dg
      in
      unless_metrics metrics (fun () ->
          Printf.printf "rounds: %d   activations: %d   %s\n" rounds
            (Network.activations net)
            (if quiesced then "quiesced" else "budget exhausted");
          match
            List.filter_map (fun (_, s) -> A.Census.estimate s) (Network.states net)
          with
          | e :: _ ->
              Printf.printf "estimate: %.0f   truth: %d   ratio: %.2f\n" e n
                (e /. float_of_int n)
          | [] -> print_endline "no estimate"));
  report_metrics metrics recorder

let bfs graph seed max_rounds domains shards target chaos_spec metrics trace_out
    =
  let g = make_graph seed graph in
  let chaos = chaos_of ~critical:(fun ~round:_ -> [ 0 ]) seed chaos_spec in
  let targets = match target with Some t -> [ t ] | None -> [] in
  let net =
    Network.init ~rng:(Prng.create ~seed) g (A.Bfs.automaton ~originator:0 ~targets)
  in
  let recorder = recorder_of metrics trace_out in
  let o =
    Runner.run ~max_rounds ~recorder ~domains ?shards:(shards_opt shards)
      ?chaos net
  in
  unless_metrics metrics (fun () ->
      report_outcome o;
      Printf.printf "originator status: %s\nlabels consistent: %b\n"
        (match A.Bfs.originator_status net with
        | A.Bfs.Found -> "found"
        | A.Bfs.Failed -> "failed"
        | A.Bfs.Waiting -> "waiting")
        (A.Bfs.labels_consistent net ~originator:0));
  report_metrics metrics recorder

let election graph seed max_rounds watch metrics trace_out =
  let g = make_graph seed graph in
  if watch then begin
    let net = Network.init ~rng:(Prng.create ~seed) g (A.Election.automaton ()) in
    let to_char s =
      if A.Election.is_leader s then 'L'
      else if A.Election.is_remaining s then 'r'
      else '_'
    in
    let o =
      Trace.watch ~max_rounds ~every:25 ~to_char ~out:print_endline
        ~stop:(fun ~round:_ net -> A.Election.leaders net <> [])
        net
    in
    report_outcome o
  end;
  let recorder = recorder_of metrics trace_out in
  let stats = A.Election.run ~rng:(Prng.create ~seed) g ~max_rounds ~recorder () in
  unless_metrics metrics (fun () ->
      Printf.printf
        "rounds: %d   phase changes: %d   stabilized: %b\nleaders: [%s]\n"
        stats.A.Election.rounds stats.A.Election.phase_increments
        stats.A.Election.stabilized
        (String.concat "; " (List.map string_of_int stats.A.Election.leaders)));
  report_metrics metrics recorder

let traversal graph seed max_rounds =
  let g = make_graph seed graph in
  let n = Graph.node_count g in
  let stats = A.Traversal.run ~rng:(Prng.create ~seed) g ~originator:0 ~max_rounds () in
  Printf.printf "hand moves: %d (2n-2 = %d)   rounds: %d   completed: %b\n"
    stats.A.Traversal.hand_moves ((2 * n) - 2) stats.A.Traversal.rounds
    stats.A.Traversal.completed

let tourist graph seed max_rounds =
  let g = make_graph seed graph in
  let stats =
    A.Greedy_tourist.run ~rng:(Prng.create ~seed) g ~start:0
      ~max_steps:max_rounds ()
  in
  Printf.printf
    "agent steps: %d   accounted FSSGA rounds: %d   visited: %d   completed: %b\n"
    stats.A.Greedy_tourist.agent_steps stats.A.Greedy_tourist.fssga_rounds
    stats.A.Greedy_tourist.visited stats.A.Greedy_tourist.completed

let bridges graph seed confidence =
  let g = make_graph seed graph in
  let t = A.Bridges.create ~rng:(Prng.create ~seed) g ~start:0 in
  let budget = A.Bridges.recommended_steps g ~c:confidence in
  A.Bridges.run t ~steps:budget;
  let suspected = A.Bridges.suspected_bridges t in
  let truth = Analysis.bridges g in
  Printf.printf "walk steps: %d\nsuspected bridges: [%s]\nactual bridges:    [%s]\nagreement: %b\n"
    budget
    (String.concat "; " (List.map string_of_int suspected))
    (String.concat "; " (List.map string_of_int truth))
    (List.sort compare suspected = truth)

let shortest_paths graph seed max_rounds domains shards sinks chaos_spec metrics
    trace_out =
  let g = make_graph seed graph in
  let sinks =
    match sinks with
    | "" -> [ 0 ]
    | s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  in
  (* The χ set of shortest-paths is its sink set (Sensitivity §2.2):
     deleting a sink is the one fault the labels cannot repair around. *)
  let chaos = chaos_of ~critical:(fun ~round:_ -> sinks) seed chaos_spec in
  let cap = Graph.node_count g in
  let net =
    Network.init ~rng:(Prng.create ~seed) g (A.Shortest_paths.automaton ~sinks ~cap)
  in
  let recorder = recorder_of metrics trace_out in
  let o =
    Runner.run ~max_rounds ~recorder ~domains ?shards:(shards_opt shards)
      ?chaos net
  in
  unless_metrics metrics (fun () ->
      report_outcome o;
      let dist = Analysis.distances g ~sources:sinks in
      let exact =
        List.for_all
          (fun (v, s) -> A.Shortest_paths.label s = min cap dist.(v))
          (Network.states net)
      in
      Printf.printf "labels equal true distances: %b\n" exact);
  report_metrics metrics recorder

let random_walk graph seed moves =
  let g = make_graph seed graph in
  let stats = A.Random_walk.run_moves ~rng:(Prng.create ~seed) g ~start:0 ~moves () in
  Printf.printf "moves: %d   rounds: %d   rounds/move: %.2f\n"
    stats.A.Random_walk.moves stats.A.Random_walk.rounds
    (float_of_int stats.A.Random_walk.rounds /. float_of_int (max 1 stats.A.Random_walk.moves));
  Printf.printf "visit counts: [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int stats.A.Random_walk.visits)))

let firing_squad graph seed max_rounds =
  let g = make_graph seed graph in
  let o = A.Firing_squad.run ~rng:(Prng.create ~seed) g ~general:0 ~max_rounds () in
  match o.A.Firing_squad.fire_round with
  | Some r ->
      Printf.printf "fired at round %d (%.2f n)   simultaneous: %b\n" r
        (float_of_int r /. float_of_int (Graph.node_count g))
        o.A.Firing_squad.simultaneous
  | None -> Printf.printf "did not fire within %d rounds\n" o.A.Firing_squad.rounds_run

let sensitivity graph seed =
  let module Sens = Symnet_sensitivity.Sensitivity in
  let rng = Prng.create ~seed in
  let spec_graph () = make_graph seed graph in
  let n = Graph.node_count (spec_graph ()) in
  let line name report =
    Printf.printf "%-18s max |chi| = %-4d reasonably correct: %d/%d\n" name
      report.Sens.max_critical report.Sens.correct report.Sens.trials
  in
  line "census"
    (Sens.estimate ~rng (Sens.census_instance ~k:(A.Census.recommended_k n))
       ~graph:spec_graph ~trials:5 ~faults_per_trial:2 ~max_steps:300);
  line "shortest-paths"
    (Sens.estimate ~rng (Sens.shortest_paths_instance ~sinks:[ 0 ])
       ~graph:spec_graph ~trials:5 ~faults_per_trial:2 ~max_steps:300);
  line "bridges"
    (Sens.estimate ~rng (Sens.bridges_instance ~steps_per_advance:50)
       ~graph:spec_graph ~trials:5 ~faults_per_trial:2 ~max_steps:300);
  line "greedy-tourist"
    (Sens.estimate ~rng (Sens.greedy_tourist_instance ()) ~graph:spec_graph
       ~trials:5 ~faults_per_trial:2 ~max_steps:2_000);
  line "milgram"
    (Sens.estimate ~rng (Sens.milgram_instance ()) ~graph:spec_graph ~trials:3
       ~faults_per_trial:0 ~max_steps:100_000);
  line "tree-census"
    (Sens.estimate ~rng (Sens.tree_census_instance ()) ~graph:spec_graph
       ~trials:3 ~faults_per_trial:1 ~max_steps:300)

(* --- symnet chaos: MTTR survey and determinism smoke test ----------- *)

(* Both Crash_restart and Corrupt_state, bounded so MTTR has a last-fault
   round to measure from; the corruption lands at the horizon so the
   rounds it takes to heal are what MTTR counts. *)
let default_chaos_spec =
  "burst:at=2:count=1:kind=crash:downtime=2;burst:at=5:width=2:count=1:kind=corrupt"

let chaos_processes seed spec =
  match Chaos.of_spec ~seed (Option.value ~default:default_chaos_spec spec) with
  | Ok c -> Chaos.processes c
  | Error m ->
      prerr_endline m;
      exit 2

(* A 2-colourable stand-in graph: the MTTR story for 2-colouring needs a
   graph where the legitimate verdict is [`Bipartite], whatever --graph
   says. *)
let bipartite_stand_in n = Gen.grid ~rows:4 ~cols:(max 2 (n / 4))

let chaos_smoke graph seed spec =
  (* Bit-identity under chaos: run each algorithm at --domains 1/2/4 with
     a full event trace into a buffer; traces and outcomes must agree
     byte for byte. *)
  let processes = chaos_processes seed spec in
  let check name mk_net =
    let run domains =
      let buf = Buffer.create 4096 in
      let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
      let o =
        Runner.run ~max_rounds:300 ~recorder ~domains
          ~chaos:(Chaos.create ~seed processes)
          (mk_net ())
      in
      Obs.Recorder.close recorder;
      ( Buffer.contents buf,
        (o.Runner.rounds, o.Runner.activations, o.Runner.transitions),
        (o.Runner.faults_applied, o.Runner.faults_noop) )
    in
    let base = run 1 in
    let ok = List.for_all (fun d -> run d = base) [ 2; 4 ] in
    Printf.printf "%-16s %s\n" name
      (if ok then "OK   (bit-identical at --domains 1/2/4)" else "MISMATCH");
    ok
  in
  let fresh_graph () = make_graph seed graph in
  let n = Graph.node_count (fresh_graph ()) in
  let ok_tc =
    check "two-colouring" (fun () ->
        Network.init ~rng:(Prng.create ~seed) (bipartite_stand_in n)
          (A.Two_colouring.automaton ~seed:0))
  in
  let ok_sp =
    check "shortest-paths" (fun () ->
        let g = fresh_graph () in
        Network.init ~rng:(Prng.create ~seed) g
          (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:(Graph.node_count g)))
  in
  if ok_tc && ok_sp then print_endline "chaos smoke: PASS"
  else begin
    print_endline "chaos smoke: FAIL";
    exit 1
  end

(* --- symnet chaos --link-smoke: the link layer's identity contract --- *)

let default_link_spec = "link=drop:p=0.05:reliable=true"

(* Two checks.  (1) Convergence: with the reliable exchange on, a lossy
   link must not change the computed fixed point — final states at every
   (shards, domains) pair equal the fault-free flat run's (§5.2: the
   self-stabilising relaxation absorbs delayed/dropped messages).
   Metrics documents are NOT compared across fault/no-fault runs —
   retransmits change round counts by design; states are the contract.
   (2) Determinism: at a fixed shard count the faulted run's full event
   trace is byte-identical at every domain count. *)
let link_smoke graph seed spec =
  let spec = Option.value ~default:default_link_spec spec in
  let fresh_net () =
    let g = make_graph seed graph in
    Network.init ~rng:(Prng.create ~seed) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:(Graph.node_count g))
  in
  let chaos () =
    match Chaos.of_spec ~seed spec with
    | Ok c -> c
    | Error m ->
        prerr_endline m;
        exit 2
  in
  Printf.printf "link smoke: %s\n" spec;
  let flat_net = fresh_net () in
  let (_ : Runner.outcome) = Runner.run ~max_rounds:100_000 flat_net in
  let flat = Network.states flat_net in
  let converged =
    List.for_all
      (fun (shards, domains) ->
        let net = fresh_net () in
        let o =
          Runner.run ~chaos:(chaos ()) ~max_rounds:100_000 ~domains ~shards net
        in
        let same = Network.states net = flat in
        Printf.printf "  shards=%d domains=%d rounds=%-6d %s\n" shards domains
          o.Runner.rounds
          (if same then "states = fault-free flat" else "STATE MISMATCH");
        same)
      [ (2, 1); (2, 2); (3, 1); (3, 2) ]
  in
  let trace domains =
    let buf = Buffer.create 4096 in
    let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
    let o =
      Runner.run ~chaos:(chaos ()) ~max_rounds:100_000 ~recorder ~domains
        ~shards:3 (fresh_net ())
    in
    Obs.Recorder.close recorder;
    (Buffer.contents buf, o.Runner.rounds, o.Runner.activations)
  in
  let deterministic = trace 1 = trace 2 in
  Printf.printf "  shards=3 traces at domains 1/2: %s\n"
    (if deterministic then "bit-identical" else "MISMATCH");
  if converged && deterministic then print_endline "link smoke: PASS"
  else begin
    print_endline "link smoke: FAIL";
    exit 1
  end

(* The paper's split, measured: shortest paths and semilattice gossip
   recover from transient corruption; the census OR and a corrupted
   2-colouring FAILED can never be cleared. *)
let chaos_mttr graph seed spec trials max_rounds =
  let processes = chaos_processes seed spec in
  let graph_thunk () = make_graph seed graph in
  let n = Graph.node_count (graph_thunk ()) in
  let mttr ~automaton ~graph ~corrupt ~legitimate =
    try
      Stab.mttr ~rng:(Prng.create ~seed) ~automaton ~graph ~chaos:processes
        ~corrupt ~legitimate ~trials ~max_rounds ()
    with Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  let line name (v : _ Stab.verdict) expect =
    Printf.printf "%-16s recovered %d/%d   MTTR: %-12s paper: %s\n" name
      v.Stab.recovered v.Stab.trials
      (if v.Stab.recovered = 0 then "-"
       else Printf.sprintf "%.1f rounds" v.Stab.mean_recovery_rounds)
      expect
  in
  let cap = n in
  line "shortest-paths"
    (mttr
       ~automaton:(A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap)
       ~graph:graph_thunk
       ~corrupt:(fun rng net v ->
         let s = Network.state net v in
         { s with A.Shortest_paths.label = Prng.int rng (cap + 1) })
       ~legitimate:(fun net ->
         let g = Network.graph net in
         let dist = Analysis.distances g ~sources:[ 0 ] in
         List.for_all
           (fun (v, s) -> A.Shortest_paths.label s = min cap dist.(v))
           (Network.states net)))
    "recovers (min+1 relaxation, §2.2)";
  let min_l = Semilattice.min_int_lattice in
  line "gossip-min"
    (mttr
       ~automaton:(Semilattice.gossip min_l ~init:(fun _ v -> v))
       ~graph:graph_thunk
       ~corrupt:(fun rng _net _v -> Prng.int rng n)
       ~legitimate:(fun net ->
         let g = Network.graph net in
         let expect =
           Semilattice.component_fixpoint min_l g ~init:(fun v -> v)
         in
         List.for_all
           (fun (v, s) -> List.assoc_opt v expect = Some s)
           (Network.states net)))
    "recovers (semilattice, §5)";
  let k = A.Census.recommended_k n in
  line "census"
    (mttr
       ~automaton:(A.Census.automaton ~k)
       ~graph:graph_thunk
       ~corrupt:(fun _rng _net _v -> A.Census.of_bits ~k ((1 lsl k) - 1))
       ~legitimate:(fun net ->
         match
           List.filter_map
             (fun (_, s) -> A.Census.estimate s)
             (Network.states net)
         with
         | [] -> false
         | es -> List.for_all (fun e -> e < 8. *. float_of_int n) es))
    "stuck (OR cannot unset a bit, §5.2)";
  line "two-colouring"
    (mttr
       ~automaton:(A.Two_colouring.automaton ~seed:0)
       ~graph:(fun () -> bipartite_stand_in n)
       ~corrupt:(fun _rng _net _v -> A.Two_colouring.Failed)
       ~legitimate:(fun net -> A.Two_colouring.verdict net = `Bipartite))
    "stuck (FAILED floods, §4.1)"

let chaos_cmd graph seed spec trials max_rounds smoke link_smoke_flag =
  if link_smoke_flag then link_smoke graph seed spec
  else if smoke then chaos_smoke graph seed spec
  else begin
    Printf.printf
      "chaos: %s\n(seed %d, %d trials; MTTR measured from the last possible \
       fault round)\n\n"
      (Option.value ~default:default_chaos_spec spec)
      seed trials;
    chaos_mttr graph seed spec trials max_rounds
  end

(* --- symnet profile: phase spans + per-round timeline ---------------- *)

let write_file path contents =
  match open_out path with
  | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc contents)
  | exception Sys_error msg ->
      prerr_endline msg;
      exit 2

let profile algo graph seed max_rounds domains shards chaos_spec out
    timeline_out span_capacity backend =
  let g = make_graph seed graph in
  let n = Graph.node_count g in
  let spans =
    try Obs.Span.create ~capacity:span_capacity ()
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  let timeline = Obs.Timeline.create () in
  let recorder = Obs.Recorder.create ~spans ~timeline () in
  let run ?critical automaton =
    let chaos = chaos_of ?critical seed chaos_spec in
    let net = Network.init ~rng:(Prng.create ~seed) g automaton in
    Runner.run ~max_rounds ~recorder ~domains ?shards:(shards_opt shards)
      ?chaos net
  in
  let run_digest mode digest =
    reject_chaos_with_digest chaos_spec;
    if shards > 1 then begin
      prerr_endline "--shards is not supported with --sm-backend tree|incr";
      exit 2
    end;
    let net =
      Network.init ~rng:(Prng.create ~seed) g
        (Symnet_core.Sm_digest.to_fssga digest)
    in
    Network.set_recorder net recorder;
    let dg = Network.digest_of net digest in
    let rounds, quiesced = drive_digest ~recorder ~max_rounds ~domains ~mode dg in
    (rounds, Network.activations net, quiesced)
  in
  let o =
    match (algo, backend) with
    | `Census, ((`Tree | `Incr) as mode) ->
        `Digest (run_digest mode (A.Census.digest ~k:(A.Census.recommended_k n)))
    | _, (`Tree | `Incr) ->
        prerr_endline "--sm-backend tree|incr is only supported for census";
        exit 2
    | `Census, `Seq ->
        `Outcome
          (run
             ~critical:(fun ~round:_ -> [])
             (A.Census.automaton ~k:(A.Census.recommended_k n)))
    | `Shortest_paths, `Seq ->
        `Outcome
          (run
             ~critical:(fun ~round:_ -> [ 0 ])
             (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n))
    | `Two_colouring, `Seq ->
        `Outcome
          (run ~critical:(fun ~round:_ -> []) (A.Two_colouring.automaton ~seed:0))
    | `Bfs, `Seq ->
        `Outcome
          (run
             ~critical:(fun ~round:_ -> [ 0 ])
             (A.Bfs.automaton ~originator:0 ~targets:[]))
  in
  Obs.Recorder.close recorder;
  write_file out (Obs.Jsonx.to_string (Obs.Span.chrome_json spans));
  (match timeline_out with
  | Some path -> write_file path (Obs.Timeline.to_jsonl timeline)
  | None -> ());
  (match o with
  | `Outcome o -> report_outcome o
  | `Digest (rounds, activations, quiesced) ->
      Printf.printf "rounds: %d   activations: %d   %s\n" rounds activations
        (if quiesced then "quiesced" else "budget exhausted"));
  Printf.printf "spans: %d recorded, %d dropped   trace: %s%s\n"
    (Obs.Span.recorded spans) (Obs.Span.dropped spans) out
    (match timeline_out with
    | Some p -> Printf.sprintf "   timeline: %s" p
    | None -> "");
  print_string
    (Obs.Stats.to_table
       (Obs.Stats.of_series (Obs.Timeline.series (Obs.Timeline.rows timeline))))

let stats file file_b diff timeline format =
  let summarise_file file =
    let summarise ic =
      if timeline then
        match Obs.Timeline.read_lines ic with
        | Error msg ->
            Printf.eprintf "%s: %s\n" file msg;
            exit 2
        | Ok rows -> Obs.Stats.of_series (Obs.Timeline.series rows)
      else
        match Obs.Stats.read_lines ic with
        | Error msg ->
            Printf.eprintf "%s: %s\n" file msg;
            exit 2
        | Ok events -> Obs.Stats.summarise events
    in
    if file = "-" then summarise stdin
    else
      match open_in file with
      | ic ->
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> summarise ic)
      | exception Sys_error msg ->
          prerr_endline msg;
          exit 2
  in
  if diff then begin
    match file_b with
    | None ->
        prerr_endline "symnet stats --diff needs two TRACE arguments";
        exit 2
    | Some b -> (
        let rows = Obs.Stats.diff (summarise_file file) (summarise_file b) in
        match format with
        | `Table -> print_string (Obs.Stats.diff_to_table rows)
        | `Json ->
            print_endline (Obs.Jsonx.to_string (Obs.Stats.diff_to_json rows)))
  end
  else begin
    (match file_b with
    | Some _ ->
        prerr_endline "symnet stats: a second TRACE argument requires --diff";
        exit 2
    | None -> ());
    let summaries = summarise_file file in
    match format with
    | `Table -> print_string (Obs.Stats.to_table summaries)
    | `Json -> print_endline (Obs.Jsonx.to_string (Obs.Stats.to_json summaries))
  end

(* ------------------------------------------------------------------ *)
(* serve / hammer                                                      *)
(* ------------------------------------------------------------------ *)

module Serve = Symnet_serve

let addr_of_string s =
  match Serve.Daemon.address_of_string s with
  | Ok a -> a
  | Error m ->
      prerr_endline m;
      exit 2

let serve graph seed max_rounds addr_s rounds_per_tick chaos_spec profile_out
    span_capacity read_deadline write_buf no_supervise =
  let g = make_graph seed graph in
  let addr = addr_of_string addr_s in
  let cap = Graph.node_count g in
  let chaos = chaos_of ~critical:(fun ~round:_ -> [ 0 ]) seed chaos_spec in
  let net =
    Network.init ~rng:(Prng.create ~seed) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap)
  in
  let spans =
    match profile_out with
    | Some _ -> Obs.Span.create ~capacity:span_capacity ()
    | None -> Obs.Span.null
  in
  let recorder =
    match profile_out with
    | Some _ -> Obs.Recorder.create ~spans ()
    | None -> Obs.Recorder.null
  in
  let session () = Runner.start ~max_rounds ~recorder ?chaos net in
  let d =
    try
      Serve.Daemon.create ~recorder ~rounds_per_tick
        ~read_deadline ~write_buf_limit:write_buf
        ~state_json:(fun s -> Obs.Jsonx.Int (A.Shortest_paths.label s))
        ~session addr
    with Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  Printf.printf "serving %s (%d nodes, %d edges) on %s\n%!" graph
    (Graph.node_count g) (Graph.edge_count g) addr_s;
  Serve.Daemon.serve_forever ~supervise:(not no_supervise) d;
  Printf.printf "served %d requests over %d rounds (%d supervisor restarts)\n%!"
    (Serve.Daemon.requests_served d)
    (Serve.Daemon.rounds_run d)
    (Serve.Daemon.restarts d);
  match profile_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Jsonx.to_string (Obs.Span.chrome_json spans));
      output_char oc '\n';
      close_out oc;
      Printf.printf "chrome trace: %s\n" path

let hammer addr_s seed requests mutate_every batch smoke do_shutdown
    fault_phase =
  let addr = addr_of_string addr_s in
  (* Retry refused connects with backoff: the daemon we are pointed at
     is usually freshly spawned (CI starts both in the same script), and
     losing the whole run to the bind/connect race made the smoke flaky. *)
  let connect = Serve.Hammer.retrying (fun () -> Serve.Daemon.connect addr) in
  let requests = if smoke then min requests 200 else requests in
  let n =
    match Serve.Hammer.probe_n ~connect () with
    | Some n -> n
    | None | (exception Unix.Unix_error _) ->
        prerr_endline "hammer: could not probe the daemon (is it running?)";
        exit 1
  in
  let o =
    Serve.Hammer.run ~seed ~requests ~mutate_every ~batch ~fault_phase ~connect
      ~n ()
  in
  Printf.printf
    "requests: %d (%d mutations, %d errors)   elapsed: %.2fs   qps: %.0f\n\
     latency us: p50 %.1f   p95 %.1f   max %.1f\n\
     stamp regressions: %d\n"
    o.Serve.Hammer.requests o.Serve.Hammer.mutations o.Serve.Hammer.errors
    o.Serve.Hammer.elapsed_s o.Serve.Hammer.qps o.Serve.Hammer.p50_us
    o.Serve.Hammer.p95_us o.Serve.Hammer.max_us
    o.Serve.Hammer.stamp_regressions;
  if fault_phase then
    Printf.printf "reconnects: %d   client-visible error window: %.3fs\n"
      o.Serve.Hammer.reconnects o.Serve.Hammer.error_window_s;
  (* Same grep-able row format as the bench harness, so serve latency
     lands in the BENCH/METRIC pipeline. *)
  (match Serve.Hammer.to_json o with
  | Obs.Jsonx.Obj fields ->
      print_string "METRIC ";
      print_endline
        (Obs.Jsonx.to_string
           (Obs.Jsonx.Obj
              (("experiment", Obs.Jsonx.String "serve_hammer")
              :: ("n", Obs.Jsonx.Int n)
              :: fields)))
  | _ -> ());
  if do_shutdown then Serve.Hammer.shutdown ~connect ();
  (* In fault-phase mode mid-run connection losses are the experiment,
     not a failure — but a stale snapshot never stops being one. *)
  if
    (o.Serve.Hammer.errors > 0 && not fault_phase)
    || o.Serve.Hammer.stamp_regressions > 0
  then exit 1

(* ------------------------------------------------------------------ *)
(* Command wiring                                                      *)
(* ------------------------------------------------------------------ *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let target_arg =
  Arg.(value & opt (some int) None & info [ "target" ] ~docv:"NODE" ~doc:"BFS target node.")

let sinks_arg =
  Arg.(value & opt string "0" & info [ "sinks" ] ~docv:"V1,V2" ~doc:"Sink nodes.")

let moves_arg =
  Arg.(value & opt int 20 & info [ "moves" ] ~docv:"N" ~doc:"Walker moves to simulate.")

let confidence_arg =
  Arg.(value & opt int 2 & info [ "c" ] ~docv:"C" ~doc:"Walk budget multiplier c.")

let trials_arg =
  Arg.(
    value & opt int 5
    & info [ "trials" ] ~docv:"N" ~doc:"Chaos trials per algorithm.")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Determinism smoke test: run 2-colouring and shortest-paths under \
           the chaos spec at --domains 1/2/4 and compare full event traces \
           byte for byte; exit 1 on any mismatch.")

let link_smoke_arg =
  Arg.(
    value & flag
    & info [ "link-smoke" ]
        ~doc:
          "Link-layer identity smoke test: run sharded shortest-paths under \
           the --chaos link spec (default \
           'link=drop:p=0.05:reliable=true') at shards 2/3 × domains 1/2, \
           require final states bit-identical to the fault-free flat run \
           and traces byte-identical across domain counts; exit 1 on any \
           mismatch.")

let trace_in_arg =
  Arg.(
    value
    & pos 0 string "-"
    & info [] ~docv:"TRACE" ~doc:"JSONL trace file ('-' for stdin).")

let trace_in_b_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"TRACE_B" ~doc:"Second trace, compared against with --diff.")

let stats_diff_arg =
  Arg.(
    value & flag
    & info [ "diff" ]
        ~doc:
          "Compare two traces: per series and field, the value in each run \
           plus absolute and percent change.")

let stats_format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format (table or json).")

let stats_timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Treat the input as a per-round timeline (JSONL rows from symnet \
           profile --timeline-out) instead of an event trace; summarises \
           round_ns, activations, transitions, frontier, faults and \
           recoveries.  Composes with --diff.")

let profile_algo_arg =
  let algos =
    [
      ("census", `Census);
      ("shortest-paths", `Shortest_paths);
      ("two-colouring", `Two_colouring);
      ("bfs", `Bfs);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum algos)) None
    & info [] ~docv:"ALGO"
        ~doc:
          "Algorithm to profile: $(b,census), $(b,shortest-paths), \
           $(b,two-colouring) or $(b,bfs).")

let profile_out_arg =
  Arg.(
    value
    & opt string "trace.json"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:
          "Write the Chrome trace-event JSON here (open in \
           chrome://tracing or https://ui.perfetto.dev).")

let profile_timeline_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline-out" ] ~docv:"FILE"
        ~doc:
          "Also write the per-round timeline as JSONL (summarise later \
           with symnet stats --timeline).")

let span_capacity_arg =
  Arg.(
    value
    & opt int 65536
    & info [ "span-capacity" ] ~docv:"N"
        ~doc:
          "Span ring-buffer capacity; when a run records more, the oldest \
           spans are dropped (keep-last).")

let addr_arg =
  Arg.(
    value
    & opt string "unix:/tmp/symnet.sock"
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:
          "Socket to serve on / connect to: $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT) (HOST a literal IP; empty means 127.0.0.1).")

let rounds_per_tick_arg =
  Arg.(
    value
    & opt int 1
    & info [ "rounds-per-tick" ] ~docv:"N"
        ~doc:"Rounds stepped between polls of the socket (default 1).")

let hammer_requests_arg =
  Arg.(
    value
    & opt int 2000
    & info [ "requests" ] ~docv:"N" ~doc:"Requests to fire.")

let hammer_mutate_arg =
  Arg.(
    value
    & opt int 20
    & info [ "mutate-every" ] ~docv:"K"
        ~doc:"Every $(docv)-th request is a mutation (0 disables).")

let hammer_batch_arg =
  Arg.(
    value
    & opt int 4
    & info [ "batch" ] ~docv:"B"
        ~doc:"Occasional batched request size (1 disables batching).")

let serve_profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Collect phase spans (rounds plus serve_snapshot/serve_request) \
           and write a Chrome trace-event JSON here on shutdown.")

let serve_read_deadline_arg =
  Arg.(
    value
    & opt float 30.
    & info [ "read-deadline" ] ~docv:"SECS"
        ~doc:
          "Evict a connection stalled mid-frame (either direction) for more \
           than $(docv) seconds.")

let serve_write_buf_arg =
  Arg.(
    value
    & opt int (4 * 1024 * 1024)
    & info [ "write-buf" ] ~docv:"BYTES"
        ~doc:
          "Per-connection response buffer bound; a reader leaving more than \
           $(docv) undelivered bytes is evicted as a slow reader.")

let serve_no_supervise_arg =
  Arg.(
    value & flag
    & info [ "no-supervise" ]
        ~doc:
          "Disable the supervisor: an exception escaping the serve core \
           kills the daemon instead of restarting it from the last \
           checkpoint.")

let hammer_fault_phase_arg =
  Arg.(
    value & flag
    & info [ "fault-phase" ]
        ~doc:
          "Treat mid-run connection failures as part of the experiment: \
           reconnect with backoff, retry the request, and report the \
           reconnect count and cumulative client-visible error window \
           (for measuring supervised-restart recovery).  Response errors \
           stop failing the run; snapshot staleness still does.")

let hammer_smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"Cap the load at 200 requests (CI smoke mode).")

let hammer_shutdown_arg =
  Arg.(
    value & flag
    & info [ "shutdown" ] ~doc:"Ask the daemon to shut down afterwards.")

let commands =
  [
    cmd "two-colouring" "Decide bipartiteness (§4.1)."
      Term.(
        const two_colouring $ graph_arg $ seed_arg $ rounds_arg $ domains_arg
        $ shards_arg $ watch_arg $ chaos_arg $ metrics_arg $ trace_out_arg);
    cmd "census" "Flajolet-Martin size estimation (§1)."
      Term.(
        const census $ graph_arg $ seed_arg $ rounds_arg $ domains_arg
        $ shards_arg $ chaos_arg $ metrics_arg $ trace_out_arg $ sm_backend_arg);
    cmd "bfs" "Breadth-first search / broadcast (§4.3)."
      Term.(
        const bfs $ graph_arg $ seed_arg $ rounds_arg $ domains_arg $ shards_arg
        $ target_arg $ chaos_arg $ metrics_arg $ trace_out_arg);
    cmd "election" "Randomized leader election (§4.7)."
      Term.(
        const election $ graph_arg $ seed_arg $ rounds_arg $ watch_arg
        $ metrics_arg $ trace_out_arg);
    cmd "traversal" "Milgram's graph traversal (§4.5)."
      Term.(const traversal $ graph_arg $ seed_arg $ rounds_arg);
    cmd "tourist" "Greedy tourist traversal (§4.6)."
      Term.(const tourist $ graph_arg $ seed_arg $ rounds_arg);
    cmd "bridges" "Biconnectivity via a random walk (§2.1)."
      Term.(const bridges $ graph_arg $ seed_arg $ confidence_arg);
    cmd "shortest-paths" "Decentralized distances to sinks (§2.2)."
      Term.(
        const shortest_paths $ graph_arg $ seed_arg $ rounds_arg $ domains_arg
        $ shards_arg $ sinks_arg $ chaos_arg $ metrics_arg $ trace_out_arg);
    cmd "random-walk" "FSSGA random walk (§4.4)."
      Term.(const random_walk $ graph_arg $ seed_arg $ moves_arg);
    cmd "firing-squad" "Firing squad on a path (§5.2 extension)."
      Term.(const firing_squad $ graph_arg $ seed_arg $ rounds_arg);
    cmd "sensitivity" "Empirical k-sensitivity survey (§2)."
      Term.(const sensitivity $ graph_arg $ seed_arg);
    cmd "chaos"
      "Fault-injection survey: MTTR per algorithm under composable chaos \
       processes (state corruption §5.2, crash-restart), or a --smoke \
       determinism check."
      Term.(
        const chaos_cmd $ graph_arg $ seed_arg $ chaos_arg $ trials_arg
        $ rounds_arg $ smoke_arg $ link_smoke_arg);
    cmd "profile"
      "Profile a run: phase spans (read/commit/exchange/fault/checkpoint/\
       recovery, per shard) to Chrome trace-event JSON, plus an optional \
       per-round timeline."
      Term.(
        const profile $ profile_algo_arg $ graph_arg $ seed_arg $ rounds_arg
        $ domains_arg $ shards_arg $ chaos_arg $ profile_out_arg
        $ profile_timeline_out_arg $ span_capacity_arg $ sm_backend_arg);
    cmd "stats"
      "Summarise a JSONL event trace (p50/p95/max per series), a profile \
       timeline with --timeline, or diff two traces with --diff."
      Term.(
        const stats $ trace_in_arg $ trace_in_b_arg $ stats_diff_arg
        $ stats_timeline_arg $ stats_format_arg);
    cmd "serve"
      "Resident daemon: keep a stabilizing shortest-paths network in memory, \
       stepping rounds while answering batched queries (states, distances, \
       census, components, bridges, telemetry) and mutations over a \
       length-prefixed socket protocol."
      Term.(
        const serve $ graph_arg $ seed_arg $ rounds_arg $ addr_arg
        $ rounds_per_tick_arg $ chaos_arg $ serve_profile_out_arg
        $ span_capacity_arg $ serve_read_deadline_arg $ serve_write_buf_arg
        $ serve_no_supervise_arg);
    cmd "hammer"
      "Stress client for symnet serve: a deterministic mixed \
       query/mutation load over one connection, reporting latency \
       percentiles as a METRIC row and failing on any error or snapshot \
       staleness."
      Term.(
        const hammer $ addr_arg $ seed_arg $ hammer_requests_arg
        $ hammer_mutate_arg $ hammer_batch_arg $ hammer_smoke_arg
        $ hammer_shutdown_arg $ hammer_fault_phase_arg);
  ]

let () =
  let info =
    Cmd.info "symnet" ~version:"1.0.0"
      ~doc:"Symmetric network computation (Pritchard & Vempala, SPAA 2006)"
  in
  exit (Cmd.eval (Cmd.group info commands))
