(* Adversarial link layer: spec grammar round-trips, determinism of
   link-faulted runs across domain counts and through checkpoint
   restore, reliable-exchange convergence to the fault-free fixed point,
   cut-channel targeting, the Degrade_links recovery policy, and the
   link runtime's counters. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Chaos = Symnet_engine.Chaos
module Link = Symnet_engine.Link
module Domain_pool = Symnet_engine.Domain_pool
module Obs = Symnet_obs
module A = Symnet_algorithms

let graph_of (n, extra) =
  Gen.random_connected (Prng.create ~seed:(n + (131 * extra))) ~n ~extra_edges:extra

let sp_automaton n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n

let graph_arb =
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "(n=%d, extra=%d)" n e)
    QCheck.Gen.(pair (int_range 8 40) (int_range 0 20))

(* A representative mixed link spec: lossy, duplicating, reordering and
   delaying — with the reliable exchange making the losses recoverable. *)
let mixed_link_spec =
  "link=drop:p=0.15:reliable=true:cap=8:backoff=1;link=dup:p=0.1;link=reorder:p=0.2:window=3;link=delay:p=0.1:rounds=2"

let chaos_of_spec ~seed spec =
  match Chaos.of_spec ~seed spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "chaos spec rejected: %s" e

(* [Runner.run] on a pool of [domains], auditing the dirty set after
   every round and at the end of the session. *)
let audited_run ~domains start =
  Domain_pool.with_pool ~domains (fun pool -> Audit.finish (start ~pool))

(* Run with a buffer-sink recorder so the full event stream is part of
   the identity being compared. *)
let drive ~seed ~spec ~shards ~domains (n, extra) =
  let g = graph_of (n, extra) in
  let net = Network.init ~rng:(Prng.create ~seed:(seed + 7)) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let buf = Buffer.create 4096 in
  let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
  let chaos = chaos_of_spec ~seed spec in
  let outcome =
    audited_run ~domains (fun ~pool ~on_round ->
        Runner.start ~chaos ~max_rounds:200 ~recorder ~pool ~shards ~on_round
          net)
  in
  ( outcome.Runner.rounds,
    outcome.Runner.activations,
    outcome.Runner.transitions,
    outcome.Runner.quiesced,
    Network.states net,
    Buffer.contents buf )

(* Link faults are a pure function of (seed, channel, round, message
   index), so a faulted sharded run must be bit-identical — states,
   outcome and the whole trace byte stream — at every domain count. *)
let prop_link_trace_bytes_across_domains =
  QCheck.Test.make ~count:12 ~name:"link faults: trace bytes domain-independent"
    graph_arb (fun gspec ->
      let base = drive ~seed:0x5eed ~spec:mixed_link_spec ~shards:3 ~domains:1 gspec in
      List.for_all
        (fun domains ->
          drive ~seed:0x5eed ~spec:mixed_link_spec ~shards:3 ~domains gspec = base)
        [ 1; 2 ])

(* Under reliable exchange every dropped/delayed ghost update is
   eventually delivered in order, so a self-stabilising computation
   converges to the same fixed point as a fault-free flat run — the
   paper's §5.2 robustness claim, at every (shards, domains) pair. *)
let prop_reliable_drop_matches_flat =
  QCheck.Test.make ~count:10 ~name:"reliable exchange: converges to fault-free fixed point"
    graph_arb (fun ((n, _extra) as gspec) ->
      let flat =
        let g = graph_of gspec in
        let net = Network.init ~rng:(Prng.create ~seed:3) g (sp_automaton n) in
        let (_ : Runner.outcome) = Runner.run ~max_rounds:200 net in
        Network.states net
      in
      List.for_all
        (fun (shards, domains) ->
          let g = graph_of gspec in
          let net = Network.init ~rng:(Prng.create ~seed:3) g (sp_automaton n) in
          Network.set_par_cutoff net 0;
          let chaos =
            chaos_of_spec ~seed:0xcafe
              "link=drop:p=0.05:reliable=true;link=delay:p=0.1:rounds=2"
          in
          let o =
            audited_run ~domains (fun ~pool ~on_round ->
                Runner.start ~chaos ~max_rounds:400 ~shards ~pool ~on_round net)
          in
          o.Runner.quiesced && Network.states net = flat)
        [ (1, 1); (3, 1); (3, 2) ])

(* Rollback purity: a restore is a pure function of its checkpoint, so
   two replays of [steps] rounds from one checkpoint agree whatever the
   run did in between.  The checkpoint is taken after [before] rounds
   and the run goes [steps] ahead first, so the restore is a genuine
   rewind; the link round counter is rewound with it, so both replays
   draw the same faults.  Returns the two replays' round results and
   final states. *)
let replays ~seed ~link_seed ~before ~steps ~dirty ~spec (n, extra) =
  let g = graph_of (n, extra) in
  let net = Network.init ~rng:(Prng.create ~seed) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let sh = Sharded.create ~shards:3 net in
  Sharded.configure_link sh ~seed:link_seed spec;
  let round () =
    let changed = Sharded.step ~dirty sh in
    Audit.check ~runtime:sh net;
    changed
  in
  for _ = 1 to before do
    ignore (round ())
  done;
  let cp = Sharded.checkpoint sh in
  let steps () =
    let cont = List.init steps (fun _ -> round ()) in
    (cont, Network.states net)
  in
  ignore (steps ());
  Sharded.restore sh cp;
  let replay1 = steps () in
  Sharded.restore sh cp;
  (replay1, steps ())

let link_spec ~drop ~delay =
  {
    Link.faults =
      [
        { Link.kind = Link.Drop; p = drop; target = Link.All_channels };
        { Link.kind = Link.Delay { rounds = 2 }; p = delay; target = Link.All_channels };
      ];
    reliable = true;
    cap = 8;
    backoff = 1;
  }

(* Two cases per graph: the plain one (naive rounds, 4 rounds before
   the checkpoint and 6 after), and one under heavier losses, stepping
   dirty.  The checkpoint's ghosts can be stale by in-flight updates,
   which the restore must refresh and whose readers it must wake. *)
let prop_checkpoint_restore_deterministic =
  QCheck.Test.make ~count:10 ~name:"link faults: checkpoint/restore replays identically"
    QCheck.(pair graph_arb (int_range 1 1000))
    (fun (gspec, seed) ->
      let r1, r2 =
        replays ~seed:11 ~link_seed:0x11ca ~before:4 ~steps:6 ~dirty:false
          ~spec:(link_spec ~drop:0.2 ~delay:0.15) gspec
      in
      let d1, d2 =
        replays ~seed ~link_seed:seed ~before:3 ~steps:8 ~dirty:true
          ~spec:(link_spec ~drop:0.3 ~delay:0.2) gspec
      in
      r1 = r2 && d1 = d2)

(* The pinned repro: 40-node random graphs on a fixed partition.  Both
   replays put back the same checkpointed ghosts, so their states agree
   even without the restore's marking ghost pass; but without it, a
   ghost the checkpoint holds stale by an in-flight update leaves its
   readers clean, and [Audit] finds clean nodes whose re-step changes
   them on each of seeds 62, 71 and 161. *)
let test_linked_rollback_is_pure () =
  List.iter
    (fun seed ->
      let a, b =
        replays ~seed ~link_seed:seed ~before:3 ~steps:8 ~dirty:true
          ~spec:(link_spec ~drop:0.3 ~delay:0.2) (40, seed mod 9)
      in
      Alcotest.(check bool) (Printf.sprintf "seed %d replays agree" seed) true (a = b))
    [ 62; 71; 161 ]

(* --- resync drops in-flight traffic ----------------------------------- *)

(* Every external write moves the epoch, and the resync that follows
   drops the channels' in-flight updates.  A reader that stepped against
   a ghost whose update was still in flight ended its round clean; the
   dropped delivery was what would have re-marked it.  So the resync
   must mark the readers of every ghost it moves, or a dirty run
   quiesces with wrong labels.  Every [every] rounds [on_round] writes a
   random node's own state back: a write that changes nothing but forces
   the resync. *)
let run_with_own_state_writes ~g ~seed ~spec ~shards ~every =
  let n = Graph.original_size g in
  let net = Network.init ~rng:(Prng.create ~seed) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let chaos = chaos_of_spec ~seed spec in
  let pick = Prng.create ~seed:((7 * seed) + 1) in
  let o =
    Audit.finish (fun ~on_round ->
        Runner.start ~dirty:true ~shards ~chaos net
          ~on_round:(fun ~round net ->
            on_round ~round net;
            if round mod every = 0 then begin
              let v = Prng.int pick n in
              Network.set_state net v (Network.state net v)
            end))
  in
  (o, net)

(* Without the marking, seed 15 on a 1,600-node path quiesces with 800
   wrong labels, and seed 138 on a 16-node path with 8.  Each label
   must be the hop distance to node 0. *)
let test_resync_wakes_stale_ghost_readers () =
  List.iter
    (fun (n, seed) ->
      let o, net =
        run_with_own_state_writes ~g:(Gen.path n) ~seed
          ~spec:"link=drop:p=0.2:reliable=true" ~shards:4 ~every:3
      in
      let wrong = ref 0 in
      for v = 0 to n - 1 do
        if A.Shortest_paths.label (Network.state net v) <> v then incr wrong
      done;
      Alcotest.(check bool)
        (Printf.sprintf "path:%d seed %d quiesced" n seed)
        true o.Runner.quiesced;
      Alcotest.(check int)
        (Printf.sprintf "path:%d seed %d wrong labels" n seed)
        0 !wrong)
    [ (1600, 15); (16, 138) ]

(* The property form: on random connected graphs, reliable drops and a
   no-op external write every [every] rounds, a dirty sharded run
   reaches the fault-free fixed point. *)
let prop_own_state_writes_reach_fixed_point =
  QCheck.Test.make ~count:40
    ~name:"resync under reliable drops: fault-free fixed point"
    QCheck.(
      quad
        (pair (int_range 8 40) (int_range 0 8))
        (int_range 1 1000) (int_range 2 4) (int_range 2 4))
    (fun (((n, _) as gspec), seed, every, shards) ->
      let flat =
        let net =
          Network.init ~rng:(Prng.create ~seed) (graph_of gspec) (sp_automaton n)
        in
        let (_ : Runner.outcome) = Runner.run ~max_rounds:200 net in
        Network.states net
      in
      let o, net =
        run_with_own_state_writes ~g:(graph_of gspec) ~seed
          ~spec:"link=drop:p=0.3:reliable=true" ~shards ~every
      in
      o.Runner.quiesced && Network.states net = flat)

(* --- a session end drops in-flight traffic -------------------------- *)

(* A session's end drops its runtime and channels, which loses the same
   wake-up: a reader that stepped against a ghost whose update was in
   flight ended clean, and only the dropped delivery would have
   re-marked it.  A first dirty session on [shards] shards under
   [spec] stops after [stop] rounds; a second session then resumes on
   the same network, dirty and flat ([Some 1]), dirty and sharded, or
   naive ([None]).  Corruption draws a uniform label in [0, n]. *)
let stop_and_resume ~g ~seed ~spec ~shards ~stop resume =
  let n = Graph.original_size g in
  let net = Network.init ~rng:(Prng.create ~seed) g (sp_automaton n) in
  let chaos = chaos_of_spec ~seed spec in
  let corrupt rng net v =
    { (Network.state net v) with A.Shortest_paths.label = Prng.int rng (n + 1) }
  in
  let (_ : Runner.outcome) =
    Audit.finish (fun ~on_round ->
        Runner.start ~dirty:true ~shards ~chaos ~corrupt ~max_rounds:stop
          ~on_round net)
  in
  let o =
    Audit.finish (fun ~on_round ->
        match resume with
        | Some k -> Runner.start ~dirty:true ~shards:k ~on_round net
        | None -> Runner.start ~dirty:false ~on_round net)
  in
  (o, net)

(* The pinned repro: shortest paths to node 0 on a grid, a burst of
   corruptions and crash-restarts, reliable drops at p = 0.05, seed 3.
   Before a linked session's end ran the marking ghost pass, the dirty
   resume of the 60x60 grid stopped at round 175 quiesced with 1,684
   wrong labels, flat or on 4 shards, and the 12x12 grid stopped at
   round 20 with 47. *)
let test_session_end_wakes_stale_ghost_readers () =
  List.iter
    (fun (side, at, width, stop) ->
      let spec =
        Printf.sprintf
          "burst:at=%d:width=%d:count=1:kind=corrupt;\
           burst:at=%d:width=%d:count=1:kind=crash:downtime=2;\
           link=drop:p=0.05:reliable=true"
          at width at width
      in
      List.iter
        (fun k ->
          let o, net =
            stop_and_resume ~g:(Gen.grid ~rows:side ~cols:side) ~seed:3 ~spec
              ~shards:4 ~stop (Some k)
          in
          let g = Network.graph net in
          let dist = Symnet_graph.Analysis.distances g ~sources:[ 0 ] in
          let wrong = ref 0 in
          Graph.iter_nodes g (fun v ->
              if A.Shortest_paths.label (Network.state net v) <> dist.(v) then
                incr wrong);
          let label = Printf.sprintf "%dx%d resumed on %d shards" side side k in
          Alcotest.(check bool) (label ^ " quiesced") true o.Runner.quiesced;
          Alcotest.(check int) (label ^ ": wrong labels") 0 !wrong)
        [ 1; 4 ])
    [ (60, 130, 40, 175); (12, 10, 5, 20) ]

(* The property form: on random connected graphs, with corruption
   bursts and reliable drops and delays, a sharded session stopped at a
   random round and resumed in a fresh dirty session, flat or sharded,
   ends where a naive resume and the fault-free run end. *)
let prop_stop_and_resume_reaches_fixed_point =
  QCheck.Test.make ~count:40
    ~name:"stop and resume under reliable drops: fault-free fixed point"
    QCheck.(
      quad
        (pair (int_range 8 40) (int_range 0 8))
        (int_range 1 1000) (int_range 1 30)
        (pair (int_range 2 4) bool))
    (fun (((n, _) as gspec), seed, stop, (shards, flat_resume)) ->
      let flat =
        let net =
          Network.init ~rng:(Prng.create ~seed) (graph_of gspec) (sp_automaton n)
        in
        let (_ : Runner.outcome) = Runner.run ~max_rounds:200 net in
        Network.states net
      in
      let resume r =
        let o, net =
          stop_and_resume ~g:(graph_of gspec) ~seed
            ~spec:
              "burst:at=2:width=20:count=2:kind=corrupt;\
               link=drop:p=0.3:reliable=true;link=delay:p=0.2:rounds=2"
            ~shards ~stop r
        in
        o.Runner.quiesced && Network.states net = flat
      in
      resume (Some (if flat_resume then 1 else shards)) && resume None)

(* --- spec grammar ---------------------------------------------------- *)

let test_spec_roundtrip () =
  let specs =
    [
      "link=drop:p=0.05:reliable=true";
      "link=dup:p=0.1,target=cut,cap=4";
      "link=reorder:window=4:p=0.1;link=delay:rounds=3:p=0.2:backoff=2";
      "bernoulli:p=0.02:kind=corrupt;link=drop:p=0.01:reliable=true";
      "burst:at=5:width=2:count=3:kind=kill_node:target=degree";
    ]
  in
  List.iter
    (fun s ->
      match Chaos.of_spec ~seed:1 s with
      | Error e -> Alcotest.failf "spec %S rejected: %s" s e
      | Ok c -> (
          let canon = Chaos.spec_of c in
          match Chaos.of_spec ~seed:1 canon with
          | Error e ->
              Alcotest.failf "canonical form %S of %S rejected: %s" canon s e
          | Ok c2 ->
              (* spec_of is a fixed point of of_spec ∘ spec_of *)
              Alcotest.(check string)
                (Printf.sprintf "round-trip of %S" s)
                canon (Chaos.spec_of c2)))
    specs

let check_error_mentions ~what spec needles =
  match Chaos.of_spec ~seed:1 spec with
  | Ok _ -> Alcotest.failf "%s: spec %S unexpectedly accepted" what spec
  | Error e ->
      List.iter
        (fun needle ->
          let mem =
            let ln = String.length needle and le = String.length e in
            let rec go i = i + ln <= le && (String.sub e i ln = needle || go (i + 1)) in
            go 0
          in
          if not mem then
            Alcotest.failf "%s: error %S does not mention %S" what e needle)
        needles

let test_unknown_key_errors_list_grammar () =
  (* Unknown keys and kinds must name the offender and spell out the
     accepted grammar so the CLI user can self-correct. *)
  check_error_mentions ~what:"unknown link key" "link=drop:p=0.1:bogus=3"
    [ "bogus"; "link=" ];
  check_error_mentions ~what:"unknown link kind" "link=teleport:p=0.1"
    [ "teleport"; "drop" ];
  check_error_mentions ~what:"unknown process key" "bernoulli:pp=1"
    [ "pp"; "valid keys" ];
  check_error_mentions ~what:"unknown process name" "gremlins:p=0.1"
    [ "gremlins" ]

(* --- cut-channel targeting ------------------------------------------- *)

let dropped_on ~g ~n ~shards spec =
  let net = Network.init ~rng:(Prng.create ~seed:5) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let sh = Sharded.create ~shards net in
  Sharded.configure_link sh ~seed:0xbeef spec;
  for _ = 1 to 30 do
    ignore (Sharded.step sh)
  done;
  match Sharded.link_runtime sh with
  | None -> Alcotest.fail "link runtime not configured"
  | Some lk -> (Link.messages_dropped lk, Link.delivered lk)

let cut_spec =
  {
    Link.faults = [ { Link.kind = Link.Drop; p = 1.0; target = Link.Cut_channels } ];
    reliable = false;
    cap = 0;
    backoff = 1;
  }

let test_cut_target_hits_bridge_channels () =
  (* Every edge of a path is a bridge, so every cross-shard channel is a
     cut channel: p=1 drop on target=cut kills all of them. *)
  let n = 24 in
  let dropped, _ = dropped_on ~g:(Gen.path n) ~n ~shards:4 cut_spec in
  Alcotest.(check bool) "path: bridge channels faulted" true (dropped > 0)

let test_cut_target_spares_bridgeless_graphs () =
  (* A complete graph has no bridges, so target=cut must fault nothing —
     traffic flows untouched even at p=1. *)
  let n = 12 in
  let dropped, delivered = dropped_on ~g:(Gen.complete n) ~n ~shards:3 cut_spec in
  Alcotest.(check int) "clique: nothing dropped" 0 dropped;
  Alcotest.(check bool) "clique: traffic flowed" true (delivered > 0)

(* --- Degrade_links recovery ------------------------------------------ *)

let test_degrade_links_recovery () =
  (* Periodic corruption keeps the network transitioning every round
     while p=1 long-delay swallows all cross-shard traffic: the watchdog
     sees progress without new minima, trips, and Degrade_links
     quarantines the stalled channels and resyncs. *)
  let n = 24 in
  let g = graph_of (n, 10) in
  let net = Network.init ~rng:(Prng.create ~seed:21) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let buf = Buffer.create 1024 in
  let recorder = Obs.Recorder.create ~sink:(Obs.Events.buffer buf) () in
  let chaos =
    chaos_of_spec ~seed:0xdead
      "periodic:every=1:kind=corrupt;link=delay:p=1.0:rounds=500"
  in
  let recovery = Runner.recovery ~patience:5 Runner.Degrade_links in
  let o =
    Runner.run ~chaos ~recovery ~max_rounds:60 ~recorder ~shards:2 net
  in
  Alcotest.(check bool) "recovery policy fired" true (o.Runner.recoveries >= 1);
  let trace = Buffer.contents buf in
  let mentions needle =
    let ln = String.length needle and lt = String.length trace in
    let rec go i = i + ln <= lt && (String.sub trace i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "degrade_links recovery recorded" true
    (mentions "degrade_links")

let test_degrade_links_without_link_gives_up () =
  (* Without a configured link runtime the policy degrades to Give_up
     rather than spinning. *)
  let n = 20 in
  let g = graph_of (n, 8) in
  let net = Network.init ~rng:(Prng.create ~seed:23) g (sp_automaton n) in
  let chaos = chaos_of_spec ~seed:0xfeed "periodic:every=1:kind=corrupt" in
  let recovery = Runner.recovery ~patience:5 Runner.Degrade_links in
  let o = Runner.run ~chaos ~recovery ~max_rounds:60 ~shards:2 net in
  Alcotest.(check bool) "gave up" true o.Runner.gave_up

(* --- counters -------------------------------------------------------- *)

let test_link_counters () =
  let n = 30 in
  let g = Gen.path n in
  let net = Network.init ~rng:(Prng.create ~seed:9) g (sp_automaton n) in
  Network.set_par_cutoff net 0;
  let sh = Sharded.create ~shards:3 net in
  Sharded.configure_link sh ~seed:0xabcd
    {
      Link.faults =
        [
          { Link.kind = Link.Drop; p = 0.5; target = Link.All_channels };
          { Link.kind = Link.Duplicate; p = 0.3; target = Link.All_channels };
        ];
      reliable = true;
      cap = 4;
      backoff = 1;
    };
  let budget = ref 400 in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    continue_ := Sharded.step sh;
    decr budget
  done;
  let lk =
    match Sharded.link_runtime sh with
    | Some lk -> lk
    | None -> Alcotest.fail "link runtime missing"
  in
  Alcotest.(check bool) "drops counted" true (Link.messages_dropped lk > 0);
  Alcotest.(check bool) "duplicates counted" true (Link.duplicated lk > 0);
  Alcotest.(check bool) "retries counted" true (Link.retries lk > 0);
  Alcotest.(check bool) "deliveries counted" true (Link.delivered lk > 0);
  (* Reliable exchange drained everything: the run quiesced with no
     traffic left in flight. *)
  Alcotest.(check bool) "quiesced with link idle" true
    ((not !continue_) && not (Link.busy lk));
  (* ... and converged to the true shortest paths despite the losses. *)
  let flat_net =
    Network.init ~rng:(Prng.create ~seed:9) (Gen.path n) (sp_automaton n)
  in
  let (_ : Runner.outcome) = Runner.run ~max_rounds:200 flat_net in
  Alcotest.(check bool) "states match fault-free flat" true
    (Network.states net = Network.states flat_net)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_link_trace_bytes_across_domains;
    QCheck_alcotest.to_alcotest prop_reliable_drop_matches_flat;
    QCheck_alcotest.to_alcotest prop_checkpoint_restore_deterministic;
    Alcotest.test_case "linked rollback is pure" `Quick
      test_linked_rollback_is_pure;
    QCheck_alcotest.to_alcotest prop_own_state_writes_reach_fixed_point;
    Alcotest.test_case "resync wakes stale-ghost readers" `Quick
      test_resync_wakes_stale_ghost_readers;
    Alcotest.test_case "session end wakes stale-ghost readers" `Quick
      test_session_end_wakes_stale_ghost_readers;
    QCheck_alcotest.to_alcotest prop_stop_and_resume_reaches_fixed_point;
    Alcotest.test_case "spec round-trips" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec errors list grammar" `Quick
      test_unknown_key_errors_list_grammar;
    Alcotest.test_case "cut target hits bridge channels" `Quick
      test_cut_target_hits_bridge_channels;
    Alcotest.test_case "cut target spares bridgeless graphs" `Quick
      test_cut_target_spares_bridgeless_graphs;
    Alcotest.test_case "degrade_links recovery" `Quick
      test_degrade_links_recovery;
    Alcotest.test_case "degrade_links without link gives up" `Quick
      test_degrade_links_without_link_gives_up;
    Alcotest.test_case "link counters" `Quick test_link_counters;
  ]
