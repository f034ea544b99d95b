(* The serve stack: wire framing, protocol codec round-trips, view
   snapshot isolation, the daemon end-to-end (single-threaded, ticking
   the event loop by hand), run ≡ start/step/finish equivalence of the
   resumable runner sessions, and the Graph.version rewind-collision
   regression — a version-keyed digest cache must never return a stale
   entry across checkpoint → mutate → restore → mutate, which is
   exactly what a rewinding restore used to break. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Network = Symnet_engine.Network
module Sharded = Symnet_engine.Sharded_network
module Runner = Symnet_engine.Runner
module Domain_pool = Symnet_engine.Domain_pool
module Fssga = Symnet_core.Fssga
module Jsonx = Symnet_obs.Jsonx
module Wire = Symnet_serve.Wire
module Protocol = Symnet_serve.Protocol
module View = Symnet_serve.View
module Daemon = Symnet_serve.Daemon
module A = Symnet_algorithms

let graph () = Gen.random_connected (Prng.create ~seed:11) ~n:20 ~extra_edges:12
let sp n = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n

(* --- wire framing ----------------------------------------------------- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 70_000 'q'; "{\"op\":\"status\"}" ] in
  List.iter (fun p -> Wire.write_frame a p) payloads;
  List.iter
    (fun p ->
      Alcotest.(check (option string)) "frame round-trips" (Some p)
        (Wire.read_frame b))
    payloads;
  Unix.close a;
  (* EOF exactly at a frame boundary is a clean close *)
  Alcotest.(check (option string)) "clean EOF" None (Wire.read_frame b);
  Unix.close b

let test_wire_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a length prefix promising 10 bytes, then a hangup after 3 *)
  let buf = Bytes.create 7 in
  Bytes.set_int32_be buf 0 10l;
  Bytes.blit_string "abc" 0 buf 4 3;
  let _ = Unix.write a buf 0 7 in
  Unix.close a;
  Alcotest.check_raises "mid-frame EOF raises" Wire.Closed (fun () ->
      ignore (Wire.read_frame b));
  Unix.close b

(* --- protocol codec --------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Query Protocol.Status;
      Protocol.Query (Protocol.Node_state [ 0; 3; 17 ]);
      Protocol.Query
        (Protocol.Distances { sources = [ 0; 2 ]; targets = [ 5; 1 ] });
      Protocol.Query Protocol.Census;
      Protocol.Query Protocol.Components;
      Protocol.Query (Protocol.Component_of 9);
      Protocol.Query Protocol.Bridges;
      Protocol.Query Protocol.Telemetry;
      Protocol.Mutate (Protocol.Kill_node 4);
      Protocol.Mutate (Protocol.Kill_edge (2, 7));
      Protocol.Mutate (Protocol.Revive_node 4);
      Protocol.Mutate (Protocol.Corrupt 1);
      Protocol.Batch
        [
          Protocol.Query Protocol.Status;
          Protocol.Mutate (Protocol.Kill_node 0);
          Protocol.Query Protocol.Census;
        ];
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode (Protocol.encode r) with
      | Ok r' ->
          Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.failf "decode error: %s" e)
    reqs

let test_protocol_rejects_garbage () =
  List.iter
    (fun s ->
      match Protocol.decode s with
      | Ok _ -> Alcotest.failf "decoded garbage %S" s
      | Error _ -> ())
    [ "GET / HTTP/1.1"; "{}"; "{\"op\":\"no-such-op\"}"; "[1,2]"; "" ]

(* --- view snapshots ---------------------------------------------------- *)

let test_view_isolation () =
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:3) g (sp 20) in
  for _ = 1 to 3 do
    ignore (Network.sync_step net)
  done;
  let v = View.take ~round:3 net in
  Alcotest.(check bool) "fresh right after take" true (View.fresh v net);
  let targets = List.init 20 Fun.id in
  let d_before = View.distances v ~sources:[ 0 ] ~targets in
  (* mutate the resident network behind the view's back *)
  Graph.remove_node g 5;
  Alcotest.(check bool) "stale after a graph mutation" false
    (View.fresh v net);
  Alcotest.(check bool) "view's graph copy still shows the node live" true
    (Graph.is_live_node (View.graph v) 5);
  Alcotest.(check (list int)) "view distances unaffected by the mutation"
    d_before
    (View.distances v ~sources:[ 0 ] ~targets);
  let v' = View.take ~round:4 net in
  Alcotest.(check bool) "new view sees the mutation" false
    (Graph.is_live_node (View.graph v') 5);
  Alcotest.(check bool) "stamps differ across the mutation" true
    (View.version v' > View.version v)

(* The view's component answers against the reference components on
   the oracle suite's random graphs (several families, isolated nodes,
   kills and revivals), for every live node and a random member cap. *)
let prop_view_components =
  QCheck.Test.make ~name:"view component answers = reference" ~count:150
    QCheck.(pair Test_analysis.arb_case (int_range 0 40))
    (fun ((shape, (ops, _)), cap) ->
      let g = Test_analysis.build shape in
      Test_analysis.mutate g ops;
      let n = Graph.original_size g in
      let net = Network.init ~rng:(Prng.create ~seed:1) g (sp (max n 1)) in
      let v = View.take ~round:0 net in
      let comps = Test_analysis.Ref.components g in
      View.component_sizes v = Array.of_list (List.map List.length comps)
      && View.max_degree v = Graph.max_degree g
      && List.for_all
           (fun comp ->
             List.for_all
               (fun node ->
                 View.component_of v node ~cap
                 = (List.length comp, List.filteri (fun i _ -> i < cap) comp))
               comp)
           comps)

(* Successive distance queries through one view's scratch, on the
   oracle suite's random graphs with kills and revivals: each answer is
   the reference BFS read at the targets.  Ids are drawn from -2 to
   n + 1, so lists hold dead, out-of-range and duplicated ids; a
   query may also ask its own sources as targets, and either list may
   be empty.  A search that left a cell or a mark behind would show in
   a later answer. *)
let prop_view_distances =
  QCheck.Test.make ~name:"view distances = reference at the targets"
    ~count:200
    QCheck.(
      pair Test_analysis.arb_case
        (list_of_size Gen.(1 -- 12)
           (triple
              (list_of_size Gen.(0 -- 4) small_nat)
              (list_of_size Gen.(0 -- 6) small_nat)
              bool)))
    (fun ((shape, (ops, _)), queries) ->
      let g = Test_analysis.build shape in
      Test_analysis.mutate g ops;
      let n = Graph.original_size g in
      let net = Network.init ~rng:(Prng.create ~seed:1) g (sp (max n 1)) in
      let v = View.take ~round:0 net in
      let id x = (x mod (n + 4)) - 2 in
      List.for_all
        (fun (srcs, tgts, echo) ->
          let sources = List.map id srcs in
          let targets = List.map id tgts @ if echo then sources else [] in
          let want = Test_analysis.Ref.distances g ~sources in
          View.distances v ~sources ~targets
          = List.map
              (fun t -> if t >= 0 && t < n then want.(t) else max_int)
              targets)
        queries)

(* Every node live and one edge dead: the view's adjacency must not
   share the graph's rows, which still list the dead edge. *)
let test_view_distances_dead_edge () =
  let g = Gen.cycle 12 in
  let net = Network.init ~rng:(Prng.create ~seed:3) g (sp 12) in
  Graph.remove_edge g 0;
  let v = View.take ~round:0 net in
  let targets = List.init 12 Fun.id in
  let want = Test_analysis.Ref.distances g ~sources:[ 0 ] in
  Alcotest.(check (list int)) "distances around the cut cycle"
    (Array.to_list want)
    (View.distances v ~sources:[ 0 ] ~targets);
  Alcotest.(check int) "the cut edge is not taken" 11 want.(1)

(* Views taken across a kill, a corruption and a revival share one
   landmark table, built once by the first distance query; each view's
   answers equal the reference on its own graph.  The targets lie near
   the sources of a 40x40 grid, so their budgets stay below the node
   count and the guided search answers (checked on a scratch of the
   view's graph), a second query through the same view included.  A
   table from another graph's rows raises. *)
let test_views_share_landmarks () =
  let g = Gen.grid ~rows:40 ~cols:40 in
  let net = Network.init ~rng:(Prng.create ~seed:5) g (sp 1600) in
  let builds = ref 0 in
  let lm =
    lazy
      (incr builds;
       Symnet_graph.Analysis.landmarks g)
  in
  let sources = [ 0; 1599 ] and targets = [ 41; 82; 1558 ] in
  let check v =
    let vg = View.graph v in
    Alcotest.(check bool) "answered by the guided search" true
      (Symnet_graph.Analysis.guided_distances (View.landmarks v) vg
         (Symnet_graph.Analysis.scratch vg) ~sources ~targets
      <> None);
    List.iter
      (fun targets ->
        Alcotest.(check (list int)) "view distances = reference"
          (Test_analysis.reference vg ~sources ~targets)
          (View.distances v ~sources ~targets))
      [ targets; List.rev targets ];
    View.landmarks v
  in
  let take () = View.take ~landmarks:lm ~round:0 net in
  let l0 = check (take ()) in
  Graph.remove_node g 42;
  let l1 = check (take ()) in
  Network.set_state net 9 ((sp 1600).Fssga.init g 9);
  let l2 = check (take ()) in
  Graph.revive_node g 42;
  let l3 = check (take ()) in
  Alcotest.(check bool) "one physical table" true (l0 == l1 && l1 == l2 && l2 == l3);
  Alcotest.(check int) "built once" 1 !builds;
  let other = Gen.grid ~rows:40 ~cols:40 in
  let v = View.take ~landmarks:(lazy (Symnet_graph.Analysis.landmarks other)) ~round:0 net in
  Alcotest.check_raises "another graph's table"
    (Invalid_argument "Analysis: landmarks built from another graph") (fun () ->
      ignore (View.distances v ~sources ~targets))

(* --- views and checkpoints refreshed in place ---------------------------- *)

(* Everything a view answers: its stamp, every node's state, liveness
   and degree, every edge's liveness, the counts, the component sizes,
   each live node's capped members, the largest degree, the bridges and
   the distance [queries]. *)
let view_answers ~m ~cap ~queries v =
  let g = View.graph v in
  let n = Graph.original_size g in
  ( (View.version v, View.epoch v, View.round v),
    List.init n (fun i -> (View.state v i, Graph.is_live_node g i, Graph.degree g i)),
    List.init m (Graph.is_live_edge g),
    (Graph.node_count g, Graph.edge_count g),
    Array.to_list (View.component_sizes v),
    List.filter_map
      (fun i -> if Graph.is_live_node g i then Some (View.component_of v i ~cap) else None)
      (List.init n Fun.id),
    View.max_degree v,
    View.bridges v,
    List.map (fun (sources, targets) -> View.distances v ~sources ~targets) queries )

(* The same answers from the network itself and the Queue/list
   reference kernels. *)
let reference_answers ~m ~cap ~queries ~round net =
  let g = Network.graph net in
  let n = Graph.original_size g in
  let comps = Test_analysis.Ref.components g in
  let comp_of i = List.find (List.mem i) comps in
  ( (Graph.version g, Network.state_epoch net, round),
    List.init n (fun i -> (Network.state net i, Graph.is_live_node g i, Graph.degree g i)),
    List.init m (Graph.is_live_edge g),
    (Graph.node_count g, Graph.edge_count g),
    List.map List.length comps,
    List.filter_map
      (fun i ->
        if Graph.is_live_node g i then
          let c = comp_of i in
          Some (List.length c, List.filteri (fun j _ -> j < cap) c)
        else None)
      (List.init n Fun.id),
    Graph.max_degree g,
    (Test_analysis.Ref.lowlink g).Test_analysis.Ref.bridge_ids,
    List.map
      (fun (sources, targets) ->
        let d = Test_analysis.Ref.distances g ~sources in
        List.map (fun t -> if t >= 0 && t < n then d.(t) else max_int) targets)
      queries )

(* What restoring [cp] into a twin network over a copy of [g] gives:
   states, liveness, dirty flags and counters, then one dirty round,
   whose frontier also shows whether the graph mutations were
   acknowledged. *)
let restored cp g aut =
  let twin = Network.init ~rng:(Prng.create ~seed:0) (Graph.copy g) aut in
  Network.restore twin cp;
  let tg = Network.graph twin in
  let n = Graph.original_size tg in
  let after =
    ( Array.copy (Network.raw_states twin),
      List.init n (fun i -> (Graph.is_live_node tg i, Graph.degree tg i)),
      Graph.edges tg,
      Array.copy (Network.raw_dirty twin),
      (Network.activations twin, Network.transitions twin) )
  in
  let changed = Sharded.step ~dirty:true (Sharded.create ~shards:1 twin) in
  (after, changed, Array.copy (Network.raw_states twin), Network.activations twin)

(* One network driven through random steps — a node killed (marked and
   acknowledged as the daemon does, or behind the engine's back),
   revived or corrupted, an edge killed, 1-3 dirty rounds, a restore of
   an early checkpoint, and bursts of state writes and liveness flips
   longer than either log.  After each step a view and a restart
   checkpoint refreshed in place must equal a fresh [View.take] and
   [Network.checkpoint]: the view answer for answer, and the reference
   kernels too; the checkpoint restore for restore. *)
let prop_refreshed_view_and_checkpoint =
  QCheck.Test.make ~name:"refreshed view and checkpoint = fresh ones = reference"
    ~count:100
    QCheck.(
      pair
        (quad (int_range 0 4) small_nat small_nat small_nat)
        (list_of_size Gen.(1 -- 14) (triple (int_range 0 7) small_nat small_nat)))
    (fun (shape, steps) ->
      let g = Test_analysis.build shape in
      let n = Graph.original_size g and m = Graph.edge_count g in
      let aut = sp (max n 1) in
      let net = Network.init ~rng:(Prng.create ~seed:1) g aut in
      let round = ref 0 in
      let runtime = Sharded.create ~shards:1 net in
      let rounds k =
        for _ = 1 to k do
          ignore (Sharded.step ~dirty:true runtime);
          incr round
        done
      in
      rounds 2;
      let early = Network.checkpoint net in
      let v = View.take ~round:!round net and cp = Network.checkpoint net in
      let rng = Prng.create ~seed:(n + List.length steps) in
      let id () = Prng.int rng (n + 2) - 1 in
      let ok = ref true in
      let check () =
        View.refresh ~round:!round v net;
        Network.refresh_checkpoint net cp;
        let queries = List.init 3 (fun _ -> ([ id () ], List.init 3 (fun _ -> id ()))) in
        let cap = 1 + Prng.int rng 4 in
        let want = reference_answers ~m ~cap ~queries ~round:!round net in
        ok :=
          !ok && View.fresh v net
          && view_answers ~m ~cap ~queries v = want
          && view_answers ~m ~cap ~queries (View.take ~round:!round net) = want
          && restored cp g aut = restored (Network.checkpoint net) g aut
      in
      check ();
      List.iter
        (fun (op, x, y) ->
          (if n > 0 then
             let u = x mod n in
             match op with
             | 0 ->
                 if y mod 2 = 0 then Network.mark_dirty_around net u;
                 Graph.remove_node g u;
                 if y mod 2 = 0 then Network.ack_graph_mutations net
             | 1 ->
                 if not (Graph.is_live_node g u) then begin
                   Graph.revive_node g u;
                   Network.set_state net u (aut.Fssga.init g u)
                 end
             | 2 -> if m > 0 then Graph.remove_edge g (y mod m)
             | 3 -> Network.set_state net u (Network.state net (y mod n))
             | 4 | 5 -> rounds (1 + (y mod 3))
             | 6 -> Network.restore net early
             | _ ->
                 (* a write and a flip at [u], then 70 writes and 70
                    flips at [w]: past both 64-entry logs, so only a
                    full copy finds [u]'s *)
                 let w = (u + 1) mod n in
                 Network.set_state net u (Network.state net (y mod n));
                 if Graph.is_live_node g u then Graph.remove_node g u
                 else Graph.revive_node g u;
                 let live = Graph.is_live_node g w in
                 for _ = 1 to 35 do
                   Network.set_state net w (Network.state net w);
                   Graph.remove_node g w;
                   Network.set_state net w (Network.state net w);
                   Graph.revive_node g w
                 done;
                 if not live then Graph.remove_node g w);
          check ())
        steps;
      !ok)

(* --- resumable sessions ------------------------------------------------ *)

(* The probabilistic census draws from the network rng on every
   activation, so state equality after the run certifies that the
   session path performed the same operations in the same order. *)
let census_net seed =
  let g = Gen.random_connected (Prng.create ~seed:41) ~n:30 ~extra_edges:20 in
  Network.init ~rng:(Prng.create ~seed) g
    (A.Census.automaton ~k:(A.Census.recommended_k 30))

let observe net =
  (Network.states net, Network.activations net, Network.transitions net)

let test_session_equals_run () =
  let via_run = Network.init ~rng:(Prng.create ~seed:3) (graph ()) (sp 20) in
  let o_run = Runner.run ~dirty:true ~max_rounds:50 via_run in
  let via_session =
    Network.init ~rng:(Prng.create ~seed:3) (graph ()) (sp 20)
  in
  let s = Runner.start ~dirty:true ~max_rounds:50 via_session in
  (* interleave manual steps with finish: same loop, different driver *)
  ignore (Runner.step s);
  ignore (Runner.step s);
  let o_sess = Runner.finish s in
  Alcotest.(check bool) "outcomes identical" true (o_run = o_sess);
  Alcotest.(check bool) "observables identical" true
    (observe via_run = observe via_session);
  Alcotest.(check bool) "session_result repeats the outcome" true
    (Runner.session_result s = Some o_sess)

let test_session_equals_run_probabilistic () =
  let a = census_net 7 in
  let o_run = Runner.run ~max_rounds:40 a in
  let b = census_net 7 in
  let s = Runner.start ~max_rounds:40 b in
  let o_sess = Runner.finish s in
  Alcotest.(check bool) "probabilistic outcomes identical" true
    (o_run = o_sess);
  Alcotest.(check bool) "probabilistic rng draws identical" true
    (observe a = observe b)

(* --- the rewind-collision regression ----------------------------------- *)

(* A version-keyed digest cache over the graph observables — the pattern
   the dirty-set reconciler, the engine's digest cache, and the serve
   views all rely on.  The contract: equal version ⇒ bit-identical
   graph, so a cache hit may skip recomputation. *)
let liveness_digest g =
  ( List.init (Graph.original_size g) (Graph.is_live_node g),
    List.sort compare (List.map (fun e -> e.Graph.id) (Graph.edges g)) )

let cached_digest cache g =
  let v = Graph.version g in
  match Hashtbl.find_opt cache v with
  | Some d -> d
  | None ->
      let d = liveness_digest g in
      Hashtbl.add cache v d;
      d

let pick_live_edge g k =
  let es = Graph.edges g in
  (List.nth es (k mod List.length es)).Graph.id

(* checkpoint → remove A → digest → restore → remove B → the digest must
   resync.  A restore that rewound the version counter made the post-B
   version collide with the cached post-A version, so the cache returned
   A's liveness for B's graph. *)
let test_rewind_collision_graph () =
  let g = graph () in
  let cache = Hashtbl.create 8 in
  ignore (cached_digest cache g);
  let snap = Graph.snapshot g in
  Graph.remove_edge g (pick_live_edge g 0);
  ignore (cached_digest cache g);
  Graph.restore g snap;
  Graph.remove_edge g (pick_live_edge g 1);
  Alcotest.(check bool) "digest resyncs after restore + second removal" true
    (cached_digest cache g = liveness_digest g)

let test_rewind_collision_network () =
  let g = graph () in
  let net = Network.init ~rng:(Prng.create ~seed:5) g (sp 20) in
  for _ = 1 to 2 do
    ignore (Network.sync_step net)
  done;
  let cache = Hashtbl.create 8 in
  ignore (cached_digest cache g);
  let cp = Network.checkpoint net in
  Graph.remove_edge g (pick_live_edge g 0);
  ignore (cached_digest cache g);
  Network.restore net cp;
  Graph.remove_edge g (pick_live_edge g 1);
  Alcotest.(check bool)
    "digest resyncs across Network.restore + second removal" true
    (cached_digest cache g = liveness_digest g);
  (* and the network keeps stepping correctly after the mutation *)
  ignore (Network.sync_step net)

(* The same collision through the engine's real incremental digest
   cache (keyed on [Graph.version]): checkpoint → remove node A →
   digest step (caches A's adjacency) → restore → remove node B.  With
   a rewinding restore the post-B version equalled the cached post-A
   version, so the cache trusted A's trees for B's graph; the sequence
   must instead match a cache-free seq run of the identical history. *)
let test_rewind_collision_digest () =
  let module Sm_digest = Symnet_core.Sm_digest in
  let k = 10 in
  let dgst = A.Census.digest ~k in
  let mk seed =
    let g =
      Gen.random_connected (Prng.create ~seed:33) ~n:40 ~extra_edges:25
    in
    let net =
      Network.init ~rng:(Prng.create ~seed) g (Sm_digest.to_fssga dgst)
    in
    (net, g)
  in
  let drive net g step =
    for _ = 1 to 3 do
      ignore (step ())
    done;
    let cp = Network.checkpoint net in
    Graph.remove_node g 7;
    ignore (step ());
    Network.restore net cp;
    Graph.remove_node g 9;
    let flags = List.init 3 (fun _ -> step ()) in
    (flags, Network.states net)
  in
  let net_d, g_d = mk 11 in
  let dg = Network.digest_of net_d dgst in
  let via_digest = drive net_d g_d (fun () -> Network.digest_step dg) in
  let net_s, g_s = mk 11 in
  let via_seq = drive net_s g_s (fun () -> Network.sync_step net_s) in
  Alcotest.(check bool) "digest cache resyncs after rollback divergence" true
    (via_digest = via_seq)

(* --- qcheck: version-keyed consumers never go stale -------------------- *)

(* Random interleavings of rounds, mutations, checkpoints and restores,
   driven through runner sessions at every (shards, domains) config the
   engine supports.  After every operation the version-keyed cache is
   probed: a hit whose digest differs from the live graph is a stale
   read — the collision the strictly monotonic version makes
   impossible. *)
type op = Rounds of int | Kill_node of int | Kill_edge of int | Cp | Restore

let op_of (k, arg) =
  match k mod 5 with
  | 0 -> Rounds ((arg mod 3) + 1)
  | 1 -> Kill_node (arg mod 14)
  | 2 -> Kill_edge arg
  | 3 -> Cp
  | _ -> Restore

let prop_version_keyed_never_stale =
  QCheck.Test.make ~name:"version-keyed consumers never stale" ~count:15
    (QCheck.list_of_size (QCheck.Gen.int_range 0 18)
       (QCheck.pair (QCheck.int_range 0 4) (QCheck.int_range 0 1000)))
  @@ fun raw_ops ->
  let ops = List.map op_of raw_ops in
  List.for_all
    (fun (shards, domains) ->
      Domain_pool.with_pool ~domains (fun pool ->
          let g =
            Gen.random_connected (Prng.create ~seed:21) ~n:14 ~extra_edges:10
          in
          let net = Network.init ~rng:(Prng.create ~seed:22) g (sp 14) in
          let mk () =
            Runner.start ~dirty:true ~max_rounds:200 ~pool ~shards net
          in
          let session = ref (mk ()) in
          let cp = ref None in
          let cache = Hashtbl.create 64 in
          let consistent () = cached_digest cache g = liveness_digest g in
          List.for_all
            (fun o ->
              (match o with
              | Rounds k ->
                  for _ = 1 to k do
                    if Runner.session_result !session <> None then
                      session := mk ();
                    ignore (Runner.step !session)
                  done
              | Kill_node v ->
                  if Graph.is_live_node g v then Graph.remove_node g v
              | Kill_edge k -> (
                  match Graph.edges g with
                  | [] -> ()
                  | es ->
                      Graph.remove_edge g
                        (List.nth es (k mod List.length es)).Graph.id)
              | Cp -> cp := Some (Network.checkpoint net)
              | Restore -> (
                  match !cp with
                  | Some c -> Network.restore net c
                  | None -> ()));
              consistent ())
            ops))
    [ (1, 1); (1, 2); (3, 1); (3, 2) ]

(* --- daemon end-to-end ------------------------------------------------- *)

(* Daemon and client share this one thread: the client writes a frame,
   hand-ticks the daemon's event loop until the reply is readable, then
   reads it — the same co-operative pattern the bench harness uses via
   the hammer's [pump] hook. *)
let sock_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "/tmp/symnet-test-%d-%d.sock" (Unix.getpid ()) !k

let pump d fd =
  let ready () =
    match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true
  in
  while not (ready ()) do
    Daemon.tick ~timeout:0.01 d
  done

let rpc d fd req =
  Wire.write_frame fd (Protocol.encode req);
  pump d fd;
  match Wire.read_frame fd with
  | None -> Alcotest.fail "daemon closed the connection"
  | Some s -> (
      match Jsonx.of_string s with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparseable response: %s" e)

let get path j =
  List.fold_left (fun acc name -> Option.bind acc (Jsonx.member name))
    (Some j) path

let get_int path j = Option.bind (get path j) Jsonx.to_int

let check_ok j =
  Alcotest.(check (option bool)) "ok response" (Some true)
    (Option.bind (Jsonx.member "ok" j) Jsonx.to_bool)

let test_daemon_e2e () =
  let g = Gen.grid ~rows:6 ~cols:6 in
  let net =
    Network.init ~rng:(Prng.create ~seed:9) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:36)
  in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () -> Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let j = rpc d fd (Protocol.Query Protocol.Status) in
          check_ok j;
          Alcotest.(check (option int)) "node count" (Some 36)
            (get_int [ "data"; "nodes" ] j);
          let v0 = Option.get (get_int [ "snapshot"; "version" ] j) in
          (* let the network stabilize, then distances are exact *)
          for _ = 1 to 30 do
            Daemon.tick d
          done;
          let j =
            rpc d fd
              (Protocol.Query
                 (Protocol.Distances { sources = [ 0 ]; targets = [ 0; 7 ] }))
          in
          check_ok j;
          (match get [ "data" ] j with
          | Some (Jsonx.List [ a; b ]) ->
              Alcotest.(check (option int)) "d(0,0)" (Some 0)
                (get_int [ "distance" ] a);
              Alcotest.(check (option int)) "d(0,7) on the grid" (Some 2)
                (get_int [ "distance" ] b)
          | _ -> Alcotest.fail "bad distances payload");
          (* a mutation advances the snapshot stamp, never rewinds it *)
          let j = rpc d fd (Protocol.Mutate (Protocol.Kill_node 7)) in
          check_ok j;
          Alcotest.(check (option bool)) "kill effective" (Some true)
            (Option.bind (get [ "data"; "effective" ] j) Jsonx.to_bool);
          let v1 = Option.get (get_int [ "snapshot"; "version" ] j) in
          Alcotest.(check bool) "stamp advanced" true (v1 > v0);
          let j = rpc d fd (Protocol.Query (Protocol.Node_state [ 7; 99 ])) in
          check_ok j;
          (match get [ "data" ] j with
          | Some (Jsonx.List [ a; b ]) ->
              Alcotest.(check (option bool)) "killed node reported dead"
                (Some false)
                (Option.bind (get [ "live" ] a) Jsonx.to_bool);
              Alcotest.(check bool) "out-of-range id reports an error" true
                (get [ "error" ] b <> None)
          | _ -> Alcotest.fail "bad node_state payload");
          (* a batch answers in one frame, all queries on one snapshot *)
          let j =
            rpc d fd
              (Protocol.Batch
                 [
                   Protocol.Query Protocol.Status;
                   Protocol.Query Protocol.Census;
                   Protocol.Query Protocol.Telemetry;
                 ])
          in
          check_ok j;
          (match get [ "results" ] j with
          | Some (Jsonx.List rs) ->
              Alcotest.(check int) "three results" 3 (List.length rs);
              let stamps =
                List.filter_map (get_int [ "snapshot"; "version" ]) rs
              in
              Alcotest.(check bool) "batch shares one snapshot" true
                (List.for_all (fun v -> v = List.hd stamps) stamps)
          | _ -> Alcotest.fail "bad batch payload");
          (* malformed frames answer with ok:false, not a dropped client *)
          Wire.write_frame fd "not json";
          pump d fd;
          (match Wire.read_frame fd with
          | Some s -> (
              match Jsonx.of_string s with
              | Ok j ->
                  Alcotest.(check (option bool)) "error envelope" (Some false)
                    (Option.bind (Jsonx.member "ok" j) Jsonx.to_bool)
              | Error e -> Alcotest.failf "unparseable error reply: %s" e)
          | None -> Alcotest.fail "daemon dropped the client on bad input");
          let j = rpc d fd Protocol.Shutdown in
          check_ok j;
          Alcotest.(check bool) "daemon stopped" false (Daemon.running d)))

(* The daemon builds the landmark table on the first distance query
   and hands it to every view it takes: after a kill, a corruption and
   a revival, the views answer from the same physical table, and every
   answer equals the reference on the resident graph. *)
let test_daemon_shares_landmarks () =
  let g = Gen.grid ~rows:7 ~cols:7 in
  let net =
    Network.init ~rng:(Prng.create ~seed:9) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:49)
  in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () -> Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let sources = [ 0; 48 ] and targets = [ 8; 24; 40; 44 ] in
          let distances () =
            let j =
              rpc d fd
                (Protocol.Query (Protocol.Distances { sources; targets }))
            in
            check_ok j;
            let got =
              match get [ "data" ] j with
              | Some (Jsonx.List xs) ->
                  List.map
                    (fun x -> Option.value (get_int [ "distance" ] x) ~default:max_int)
                    xs
              | _ -> Alcotest.fail "bad distances payload"
            in
            Alcotest.(check (list int)) "distances = reference"
              (Test_analysis.reference g ~sources ~targets) got;
            Option.get (Daemon.landmarks d)
          in
          check_ok (rpc d fd (Protocol.Query Protocol.Census));
          Alcotest.(check bool) "no table before a distance query" true
            (Daemon.landmarks d = None);
          let l0 = distances () in
          let mutate m = check_ok (rpc d fd (Protocol.Mutate m)) in
          mutate (Protocol.Kill_node 24);
          let l1 = distances () in
          mutate (Protocol.Corrupt 8);
          let l2 = distances () in
          mutate (Protocol.Revive_node 24);
          let l3 = distances () in
          Alcotest.(check bool) "every view shares the table" true
            (l0 == l1 && l1 == l2 && l2 == l3)))

let test_daemon_restarts_after_quiescence () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  let net =
    Network.init ~rng:(Prng.create ~seed:2) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:16)
  in
  let starts = ref 0 in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () ->
        incr starts;
        Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      for _ = 1 to 60 do
        Daemon.tick ~timeout:0. d
      done;
      Alcotest.(check int) "one session so far" 1 !starts;
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let j = rpc d fd (Protocol.Query Protocol.Status) in
          Alcotest.(check (option bool)) "quiesced" (Some true)
            (Option.bind (get [ "data"; "quiesced" ] j) Jsonx.to_bool);
          (* an effective mutation re-arms a session over the same net *)
          let j = rpc d fd (Protocol.Mutate (Protocol.Kill_node 5)) in
          check_ok j;
          Alcotest.(check int) "mutation re-armed a session" 2 !starts;
          (* a no-op mutation must not *)
          let j = rpc d fd (Protocol.Mutate (Protocol.Kill_node 5)) in
          Alcotest.(check (option bool)) "second kill is a no-op" (Some false)
            (Option.bind (get [ "data"; "effective" ] j) Jsonx.to_bool);
          Alcotest.(check int) "no-op did not re-arm" 2 !starts))

(* Census, components and component_of answered from the view's label
   array, over the wire, on a graph with several components — one of
   them a 40x40 grid, past the 1000-member cap — a dead node and
   isolated nodes, against the reference components. *)
let test_daemon_component_queries () =
  let rng = Prng.create ~seed:17 in
  let small =
    Test_analysis.union rng
      (Gen.random_connected rng ~n:30 ~extra_edges:8)
      (Test_analysis.isolated 3)
  in
  let g =
    Test_analysis.union rng small
      (Test_analysis.union rng (Gen.grid ~rows:40 ~cols:40) (Gen.cycle 5))
  in
  let n = Graph.original_size g in
  Graph.remove_node g 7;
  Graph.remove_node g 40;
  let comps = Test_analysis.Ref.components g in
  let net =
    Network.init ~rng:(Prng.create ~seed:9) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n)
  in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () -> Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ints path j =
            match get path j with
            | Some (Jsonx.List xs) -> List.map (fun x -> Option.get (Jsonx.to_int x)) xs
            | _ -> Alcotest.failf "no int list at %s" (String.concat "." path)
          in
          let j = rpc d fd (Protocol.Query Protocol.Census) in
          check_ok j;
          Alcotest.(check (option int)) "census components"
            (Some (List.length comps)) (get_int [ "data"; "components" ] j);
          Alcotest.(check (option int)) "census max degree"
            (Some (Graph.max_degree g)) (get_int [ "data"; "max_degree" ] j);
          Alcotest.(check (option int)) "census live nodes"
            (Some (Graph.node_count g)) (get_int [ "data"; "live_nodes" ] j);
          let j = rpc d fd (Protocol.Query Protocol.Components) in
          Alcotest.(check (option int)) "components count"
            (Some (List.length comps)) (get_int [ "data"; "count" ] j);
          Alcotest.(check (list int)) "component sizes"
            (List.map List.length comps) (ints [ "data"; "sizes" ] j);
          Alcotest.(check bool) "a component exceeds the cap" true
            (List.exists (fun c -> List.length c > 1000) comps);
          List.iter
            (fun node ->
              let j = rpc d fd (Protocol.Query (Protocol.Component_of node)) in
              check_ok j;
              match List.find_opt (List.mem node) comps with
              | None ->
                  Alcotest.(check (option bool)) "dead or bad node" (Some false)
                    (Option.bind (get [ "data"; "live" ] j) Jsonx.to_bool)
              | Some comp ->
                  let size = List.length comp in
                  Alcotest.(check (option int)) "component size" (Some size)
                    (get_int [ "data"; "size" ] j);
                  Alcotest.(check (list int)) "first members, ascending"
                    (List.filteri (fun i _ -> i < 1000) comp)
                    (ints [ "data"; "members" ] j);
                  Alcotest.(check (option bool)) "truncated" (Some (size > 1000))
                    (Option.bind (get [ "data"; "truncated" ] j) Jsonx.to_bool))
            [ 0; 7; 31; 33; 40; 100; n - 7; n - 1; n; -1 ]))

(* Mutations over the wire mark their neighbourhood as the runner's
   fault pipeline does, so on a quiesced 12x12 grid the first round
   after each steps at most the nodes whose view it changed (not all
   144), and the network settles on the states a naive run reaches from
   the same post-mutation state. *)
let test_daemon_mutations_wake_neighbourhood () =
  let side = 12 in
  let g = Gen.grid ~rows:side ~cols:side in
  let n = side * side in
  let aut = A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:n in
  let net = Network.init ~rng:(Prng.create ~seed:5) g aut in
  let session = ref None in
  let after_round = ref [] in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () ->
        let s =
          Runner.start ~dirty:true
            ~on_round:(fun ~round:_ net ->
              after_round := Network.activations net :: !after_round)
            net
        in
        session := Some s;
        s)
      addr
  in
  let quiesce () =
    let budget = ref 1000 in
    while Runner.session_result (Option.get !session) = None && !budget > 0 do
      Daemon.tick ~timeout:0. d;
      decr budget
    done;
    Alcotest.(check bool) "network quiesced" true
      (Runner.session_result (Option.get !session) <> None)
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      quiesce ();
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let victim = (5 * side) + 6 in
          let u, w = ((3 * side) + 2, (3 * side) + 3) in
          List.iter
            (fun (m, apply, touched) ->
              (* the post-mutation state, rebuilt on a copy *)
              let g' = Graph.copy g in
              let states = Array.copy (Network.raw_states net) in
              apply g' states;
              let bound = touched g' in
              let acts0 = Network.activations net in
              after_round := [];
              let j = rpc d fd (Protocol.Mutate m) in
              Alcotest.(check (option bool)) "mutation effective" (Some true)
                (Option.bind (get [ "data"; "effective" ] j) Jsonx.to_bool);
              quiesce ();
              (match List.rev !after_round with
              | first :: _ ->
                  let stepped = first - acts0 in
                  if stepped < 1 || stepped > bound then
                    Alcotest.failf "first round stepped %d nodes, expected 1..%d"
                      stepped bound
              | [] -> Alcotest.fail "no round ran after the mutation");
              let naive = Network.init ~rng:(Prng.create ~seed:5) g' aut in
              Array.iteri (fun v q -> Network.set_state naive v q) states;
              let o = Runner.run ~dirty:false naive in
              Alcotest.(check bool) "naive run quiesced" true o.Runner.quiesced;
              Alcotest.(check bool) "same fixed point as a naive run" true
                (Network.raw_states naive = Network.raw_states net))
            [
              ( Protocol.Kill_node victim,
                (fun g' _ -> Graph.remove_node g' victim),
                (* the victim's live neighbours *)
                fun _ -> Graph.degree g victim );
              ( Protocol.Kill_edge (u, w),
                (fun g' _ -> Graph.remove_edge_between g' u w),
                fun _ -> 2 );
              ( Protocol.Revive_node victim,
                (fun g' states ->
                  Graph.revive_node g' victim;
                  states.(victim) <- aut.Fssga.init g' victim),
                fun g' -> 1 + Graph.degree g' victim );
            ]))

(* A mutation's reply is stamped without a snapshot.  On a quiesced
   daemon a mutation, the rounds it wakes and a query take one view
   between them (the query's).  A mutation batched before a query
   carries the query's stamp.  That batch's edge kill changes no label,
   so the round it wakes changes nothing and leaves the query's view
   fresh with a round older than the rounds run: an ineffective
   mutation then is stamped from that view, so the query after it does
   not go back. *)
let stamp j =
  List.map
    (fun k -> get_int [ "snapshot"; k ] j)
    [ "version"; "epoch"; "round" ]

let no_later a b = List.for_all2 ( <= ) (stamp a) (stamp b)

let test_daemon_mutation_stamps () =
  let side = 8 in
  let g = Gen.grid ~rows:side ~cols:side in
  let net =
    Network.init ~rng:(Prng.create ~seed:4) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:(side * side))
  in
  let spans = Symnet_obs.Span.create ~capacity:1024 () in
  let recorder =
    Symnet_obs.Recorder.create ~activation_events:false ~spans ()
  in
  let session = ref None in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create ~recorder
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () ->
        let s = Runner.start ~dirty:true net in
        session := Some s;
        s)
      addr
  in
  let quiesced () = Runner.session_result (Option.get !session) <> None in
  let quiesce () =
    let budget = ref 1000 in
    while (not (quiesced ())) && !budget > 0 do
      Daemon.tick ~timeout:0. d;
      decr budget
    done;
    Alcotest.(check bool) "quiesced" true (quiesced ())
  in
  let snapshots () =
    List.length
      (List.filter
         (fun (s : Symnet_obs.Span.span) ->
           s.phase = Symnet_obs.Span.Serve_snapshot)
         (Symnet_obs.Span.spans spans))
  in
  let effective j = Option.bind (get [ "data"; "effective" ] j) Jsonx.to_bool in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      quiesce ();
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let status () = rpc d fd (Protocol.Query Protocol.Status) in
          (* the sink's neighbour: labels beyond it move *)
          let m = rpc d fd (Protocol.Mutate (Protocol.Kill_node 1)) in
          Alcotest.(check (option bool)) "kill effective" (Some true)
            (effective m);
          quiesce ();
          let q1 = status () in
          Alcotest.(check int) "mutation, rounds, query: one view" 1
            (snapshots ());
          Alcotest.(check bool) "mutation stamp no later than the query's"
            true (no_later m q1);
          (* (1,2)-(2,2): both ends keep a neighbour one step nearer the
             sink *)
          let b =
            rpc d fd
              (Protocol.Batch
                 [
                   Protocol.Mutate
                     (Protocol.Kill_edge (side + 2, (2 * side) + 2));
                   Protocol.Query Protocol.Status;
                 ])
          in
          let m, q2 =
            match get [ "results" ] b with
            | Some (Jsonx.List [ m; q ]) -> (m, q)
            | _ -> Alcotest.fail "bad batch payload"
          in
          Alcotest.(check (option bool)) "edge kill effective" (Some true)
            (effective m);
          Alcotest.(check (list (option int))) "batched mutation and query"
            (stamp q2) (stamp m);
          Alcotest.(check bool) "batch after the last query" true
            (no_later q1 q2 && stamp q1 <> stamp q2);
          Alcotest.(check bool) "its round changed nothing" true
            (quiesced ()
            && get_int [ "snapshot"; "round" ] q2
               = Some (Daemon.rounds_run d - 1));
          let m = rpc d fd (Protocol.Mutate (Protocol.Kill_node 99)) in
          Alcotest.(check (option bool)) "out-of-range kill is a no-op"
            (Some false) (effective m);
          let q3 = status () in
          Alcotest.(check bool) "query, no-op mutation, query: monotone" true
            (no_later q2 m && no_later m q3)))

(* --- incremental decoder ----------------------------------------------- *)

let test_decoder_incremental () =
  let d = Wire.decoder () in
  let frame = Bytes.to_string (Wire.encode_frame "hello") in
  (* byte-at-a-time: Need_more until the last byte lands *)
  String.iteri
    (fun i ch ->
      (match Wire.next d with
      | Wire.Need_more -> ()
      | _ -> Alcotest.failf "premature frame at byte %d" i);
      Wire.feed d (Bytes.make 1 ch) 1)
    frame;
  (match Wire.next d with
  | Wire.Frame "hello" -> ()
  | _ -> Alcotest.fail "frame not reassembled");
  (* two frames in one chunk come out one next at a time *)
  let two =
    Bytes.cat (Wire.encode_frame "one") (Wire.encode_frame "two")
  in
  Wire.feed d two (Bytes.length two);
  (match (Wire.next d, Wire.next d, Wire.next d) with
  | Wire.Frame "one", Wire.Frame "two", Wire.Need_more -> ()
  | _ -> Alcotest.fail "pipelined frames mis-split")

let test_decoder_bad_lengths_sticky () =
  let check_bad label header =
    let d = Wire.decoder () in
    Wire.feed d header (Bytes.length header);
    (match Wire.next d with
    | Wire.Bad _ -> ()
    | _ -> Alcotest.failf "%s accepted" label);
    (* sticky: further input is discarded, the verdict stands *)
    let good = Wire.encode_frame "x" in
    Wire.feed d good (Bytes.length good);
    match Wire.next d with
    | Wire.Bad _ -> ()
    | _ -> Alcotest.failf "%s verdict not sticky" label
  in
  let header v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 v;
    b
  in
  check_bad "oversized length" (header (Int32.of_int (Wire.max_frame + 1)));
  check_bad "negative length" (header (-1l))

(* --- wire-frame fuzzer -------------------------------------------------- *)

(* A hostile or broken client must cost at most its own connection: the
   daemon evicts it and keeps answering well-formed requests from
   everyone else.  Deterministic fuzz — the blobs come off a seeded
   Prng, so a failure reproduces. *)
let test_daemon_survives_frame_garbage () =
  let g = Gen.grid ~rows:5 ~cols:5 in
  let net =
    Network.init ~rng:(Prng.create ~seed:4) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:25)
  in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () -> Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let rng = Prng.create ~seed:0xf022 in
      let send_raw bytes =
        let fd = Daemon.connect addr in
        (try ignore (Unix.write fd bytes 0 (Bytes.length bytes))
         with Unix.Unix_error _ -> ());
        (* let the daemon accept, read and (if warranted) evict *)
        for _ = 1 to 5 do
          Daemon.tick ~timeout:0. d
        done;
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let header v =
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 (Int32.of_int v);
        b
      in
      let adversaries =
        [
          (* oversized and negative length prefixes *)
          header (Wire.max_frame + 1);
          header (-1);
          Bytes.of_string "\xff\xff\xff\xff\xff\xff\xff\xff";
          (* a length promising more than ever arrives, then hangup *)
          Bytes.cat (header 1000) (Bytes.of_string "abc");
          (* empty write, immediate hangup *)
          Bytes.create 0;
        ]
      in
      List.iter send_raw adversaries;
      (* seeded random blobs *)
      for _ = 1 to 20 do
        let len = 1 + Prng.int rng 64 in
        send_raw (Bytes.init len (fun _ -> Char.chr (Prng.int rng 256)))
      done;
      (* the daemon is unimpressed: a fresh well-formed client is served *)
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let j = rpc d fd (Protocol.Query Protocol.Status) in
          check_ok j;
          Alcotest.(check (option int)) "still all nodes" (Some 25)
            (get_int [ "data"; "nodes" ] j);
          Alcotest.(check (option int)) "no supervisor restarts" (Some 0)
            (get_int [ "data"; "restarts" ] j)))

let test_daemon_garbage_json_in_valid_frame () =
  (* Malformed JSON inside a well-formed frame is a protocol error, not
     a framing error: the daemon answers ok:false and the connection
     stays usable. *)
  let g = Gen.grid ~rows:4 ~cols:4 in
  let net =
    Network.init ~rng:(Prng.create ~seed:6) g
      (A.Shortest_paths.automaton ~sinks:[ 0 ] ~cap:16)
  in
  let addr = Daemon.Unix_sock (sock_path ()) in
  let d =
    Daemon.create
      ~state_json:(fun s -> Jsonx.Int (A.Shortest_paths.label s))
      ~session:(fun () -> Runner.start ~dirty:true net)
      addr
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun garbage ->
              Wire.write_frame fd garbage;
              pump d fd;
              match Wire.read_frame fd with
              | None -> Alcotest.fail "daemon closed on garbage JSON"
              | Some s -> (
                  match Jsonx.of_string s with
                  | Error e -> Alcotest.failf "unparseable error reply: %s" e
                  | Ok j ->
                      Alcotest.(check (option bool))
                        "garbage answered ok:false" (Some false)
                        (Option.bind (Jsonx.member "ok" j) Jsonx.to_bool)))
            [ "this is not json"; "{\"op\":"; "{\"op\":\"no-such-op\"}"; "" ];
          (* same connection still serves real requests *)
          let j = rpc d fd (Protocol.Query Protocol.Status) in
          check_ok j))

let suite =
  [
    Alcotest.test_case "wire round-trip + clean EOF" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire truncated frame raises" `Quick test_wire_truncated;
    Alcotest.test_case "protocol codec round-trips" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects garbage" `Quick
      test_protocol_rejects_garbage;
    Alcotest.test_case "view snapshot isolation" `Quick test_view_isolation;
    QCheck_alcotest.to_alcotest prop_view_distances;
    Alcotest.test_case "view distances, every node live, one edge dead"
      `Quick test_view_distances_dead_edge;
    Alcotest.test_case "views share one landmark table" `Quick
      test_views_share_landmarks;
    QCheck_alcotest.to_alcotest prop_view_components;
    QCheck_alcotest.to_alcotest prop_refreshed_view_and_checkpoint;
    Alcotest.test_case "session ≡ run (deterministic)" `Quick
      test_session_equals_run;
    Alcotest.test_case "session ≡ run (probabilistic)" `Quick
      test_session_equals_run_probabilistic;
    Alcotest.test_case "rewind collision: Graph.restore" `Quick
      test_rewind_collision_graph;
    Alcotest.test_case "rewind collision: Network.restore" `Quick
      test_rewind_collision_network;
    Alcotest.test_case "rewind collision: incremental digest" `Quick
      test_rewind_collision_digest;
    QCheck_alcotest.to_alcotest prop_version_keyed_never_stale;
    Alcotest.test_case "daemon end-to-end" `Quick test_daemon_e2e;
    Alcotest.test_case "daemon component queries = reference" `Quick
      test_daemon_component_queries;
    Alcotest.test_case "daemon mutations wake only their neighbourhood"
      `Quick test_daemon_mutations_wake_neighbourhood;
    Alcotest.test_case "daemon stamps mutations without a snapshot" `Quick
      test_daemon_mutation_stamps;
    Alcotest.test_case "daemon shares one landmark table" `Quick
      test_daemon_shares_landmarks;
    Alcotest.test_case "daemon restarts after quiescence" `Quick
      test_daemon_restarts_after_quiescence;
    Alcotest.test_case "decoder reassembles incrementally" `Quick
      test_decoder_incremental;
    Alcotest.test_case "decoder bad lengths are sticky" `Quick
      test_decoder_bad_lengths_sticky;
    Alcotest.test_case "daemon survives frame garbage" `Quick
      test_daemon_survives_frame_garbage;
    Alcotest.test_case "daemon answers garbage JSON in valid frames" `Quick
      test_daemon_garbage_json_in_valid_frame;
  ]
