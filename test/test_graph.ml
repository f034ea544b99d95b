module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng

let rng () = Prng.create ~seed:12345

let test_create_basic () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (1, 2) ] in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "duplicate collapsed" 3 (Graph.edge_count g);
  Alcotest.(check (list int)) "neighbours of 1" [ 0; 2 ] (Graph.neighbours g 1);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge g 0 3)

let test_create_rejects () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.create: bad endpoint (0,5)") (fun () ->
      ignore (Graph.create ~n:2 ~edges:[ (0, 5) ]))

let test_remove_edge () =
  let g = Gen.cycle 5 in
  Alcotest.(check int) "m" 5 (Graph.edge_count g);
  Graph.remove_edge_between g 0 1;
  Alcotest.(check int) "m after" 4 (Graph.edge_count g);
  Alcotest.(check bool) "gone" false (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "still connected" true (Analysis.is_connected g);
  (* idempotent *)
  Graph.remove_edge_between g 0 1;
  Alcotest.(check int) "idempotent" 4 (Graph.edge_count g)

let test_remove_node () =
  let g = Gen.star 6 in
  Graph.remove_node g 0;
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "edges die with node" 0 (Graph.edge_count g);
  Alcotest.(check int) "degree of dead" 0 (Graph.degree g 0);
  Alcotest.(check (list int)) "no neighbours" [] (Graph.neighbours g 1);
  Graph.remove_node g 0;
  Alcotest.(check int) "idempotent" 5 (Graph.node_count g)

let test_copy_independent () =
  let g = Gen.cycle 4 in
  let h = Graph.copy g in
  Graph.remove_node g 0;
  Alcotest.(check int) "copy unaffected" 4 (Graph.node_count h);
  Alcotest.(check int) "original mutated" 3 (Graph.node_count g)

let test_generators_shapes () =
  let checks =
    [
      ("path 10", Gen.path 10, 10, 9);
      ("cycle 10", Gen.cycle 10, 10, 10);
      ("complete 6", Gen.complete 6, 6, 15);
      ("star 7", Gen.star 7, 7, 6);
      ("grid 3x4", Gen.grid ~rows:3 ~cols:4, 12, 17);
      ("hypercube 4", Gen.hypercube ~dim:4, 16, 32);
      ("binary tree d3", Gen.complete_binary_tree ~depth:3, 15, 14);
      ("theta 2 3 4", Gen.theta 2 3 4, 11, 12);
      ("barbell 4", Gen.barbell 4, 8, 13);
      ("lollipop 4 3", Gen.lollipop ~clique:4 ~tail:3, 7, 9);
      ("petersen", Gen.petersen (), 10, 15);
    ]
  in
  List.iter
    (fun (name, g, n, m) ->
      Alcotest.(check int) (name ^ " nodes") n (Graph.node_count g);
      Alcotest.(check int) (name ^ " edges") m (Graph.edge_count g);
      Alcotest.(check bool) (name ^ " connected") true (Analysis.is_connected g))
    checks

let test_petersen_regular () =
  let g = Gen.petersen () in
  Graph.iter_nodes g (fun v ->
      Alcotest.(check int) "3-regular" 3 (Graph.degree g v))

let test_random_tree () =
  let g = Gen.random_tree (rng ()) 50 in
  Alcotest.(check int) "n" 50 (Graph.node_count g);
  Alcotest.(check int) "m = n-1" 49 (Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Analysis.is_connected g)

let test_random_connected () =
  let g = Gen.random_connected (rng ()) ~n:40 ~extra_edges:20 in
  Alcotest.(check int) "m" 59 (Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Analysis.is_connected g)

let test_random_bipartite () =
  let g = Gen.random_bipartite (rng ()) ~left:8 ~right:5 ~p:0.4 in
  Alcotest.(check bool) "connected" true (Analysis.is_connected g);
  Alcotest.(check bool) "bipartite" true (Analysis.is_bipartite g)

let test_components () =
  let g = Graph.create ~n:6 ~edges:[ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ] ] (Analysis.components g)

let test_distances () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let d = Analysis.distances g ~sources:[ 0 ] in
  Alcotest.(check int) "corner to corner" 4 d.(8);
  Alcotest.(check int) "centre" 2 d.(4);
  let d2 = Analysis.distances g ~sources:[ 0; 8 ] in
  Alcotest.(check int) "multi-source centre" 2 d2.(4);
  Alcotest.(check int) "multi-source corner" 0 d2.(8)

let test_diameter () =
  Alcotest.(check int) "path" 9 (Analysis.diameter (Gen.path 10));
  Alcotest.(check int) "cycle" 5 (Analysis.diameter (Gen.cycle 10));
  Alcotest.(check int) "complete" 1 (Analysis.diameter (Gen.complete 5));
  Alcotest.(check int) "petersen" 2 (Analysis.diameter (Gen.petersen ()))

let test_bipartite_oracle () =
  Alcotest.(check bool) "even cycle" true (Analysis.is_bipartite (Gen.cycle 8));
  Alcotest.(check bool) "odd cycle" false (Analysis.is_bipartite (Gen.cycle 7));
  Alcotest.(check bool) "grid" true (Analysis.is_bipartite (Gen.grid ~rows:4 ~cols:5));
  Alcotest.(check bool) "petersen" false (Analysis.is_bipartite (Gen.petersen ()));
  Alcotest.(check bool) "tree" true
    (Analysis.is_bipartite (Gen.complete_binary_tree ~depth:4))

let test_two_colouring_proper () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  match Analysis.two_colouring g with
  | None -> Alcotest.fail "grid should be bipartite"
  | Some colours ->
      Graph.iter_edges g (fun e ->
          Alcotest.(check bool) "proper" true (colours.(e.u) <> colours.(e.v)))

let test_bridges_path () =
  let g = Gen.path 6 in
  Alcotest.(check int) "all path edges are bridges" 5
    (List.length (Analysis.bridges g))

let test_bridges_cycle () =
  Alcotest.(check (list int)) "cycle has none" [] (Analysis.bridges (Gen.cycle 6))

let test_bridges_barbell () =
  let g = Gen.barbell 4 in
  let bs = Analysis.bridges g in
  Alcotest.(check int) "exactly one bridge" 1 (List.length bs);
  let e = Graph.edge g (List.hd bs) in
  Alcotest.(check (pair int int)) "the middle edge" (3, 4) (e.u, e.v)

let test_bridges_theta () =
  Alcotest.(check (list int)) "theta bridgeless" []
    (Analysis.bridges (Gen.theta 2 3 4))

let test_bridges_random_vs_tree () =
  (* in a tree every edge is a bridge *)
  let g = Gen.random_tree (rng ()) 30 in
  Alcotest.(check int) "tree edges all bridges" 29
    (List.length (Analysis.bridges g))

let test_articulation_barbell () =
  let g = Gen.barbell 4 in
  Alcotest.(check (list int)) "both bridge ends" [ 3; 4 ]
    (Analysis.articulation_points g)

let test_articulation_path () =
  let g = Gen.path 5 in
  Alcotest.(check (list int)) "internal nodes" [ 1; 2; 3 ]
    (Analysis.articulation_points g)

let test_spanning_tree () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let te = Analysis.spanning_tree_edges g in
  Alcotest.(check int) "n-1 edges" 8 (List.length te)

let test_analyses_respect_faults () =
  let g = Gen.cycle 6 in
  Graph.remove_edge_between g 0 1;
  (* now a path: every edge a bridge *)
  Alcotest.(check int) "bridges after fault" 5
    (List.length (Analysis.bridges g));
  Graph.remove_node g 3;
  Alcotest.(check int) "components after node fault" 2
    (List.length (Analysis.components g))

let prop_random_connected_always_connected =
  QCheck.Test.make ~name:"random_connected is connected" ~count:50
    QCheck.(pair (int_range 2 60) (int_range 0 40))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra_edges:extra in
      Analysis.is_connected g)

let prop_bridges_sound =
  (* removing a reported bridge disconnects; removing a non-bridge does not *)
  QCheck.Test.make ~name:"bridge oracle sound and complete" ~count:40
    QCheck.(pair (int_range 3 40) (int_range 0 20))
    (fun (n, extra) ->
      let rng = Prng.create ~seed:(n + (1000 * extra)) in
      let g = Gen.random_connected rng ~n ~extra_edges:extra in
      let bridges = Analysis.bridges g in
      List.for_all
        (fun (e : Graph.edge) ->
          let h = Graph.copy g in
          Graph.remove_edge h e.id;
          let disconnects = not (Analysis.is_connected h) in
          if List.mem e.id bridges then disconnects else not disconnects)
        (Graph.edges g))

(* The liveness a query can observe, version included or not. *)
let liveness ?(version = true) g =
  let n = Graph.original_size g in
  ( List.init n (fun v -> (Graph.is_live_node g v, Graph.degree g v)),
    Graph.edges g,
    (Graph.node_count g, Graph.edge_count g, Graph.cleared_edges g),
    if version then Graph.version g else 0 )

(* Random interleavings of node and edge kills, revivals, snapshot +
   restore, copies, and bursts of flips longer than the flip log: the
   cleared-edge count must equal a scan of the edge bits, a copy
   refreshed from the graph (by its flip log, or by a blit when the log
   does not reach back) must equal the graph, and a snapshot refreshed
   from it must restore to the graph's liveness. *)
let prop_cleared_count_and_refresh =
  QCheck.Test.make ~name:"cleared edge count and refreshed copies = scan"
    ~count:200
    QCheck.(
      triple (int_range 2 50) (int_range 0 40)
        (list_of_size Gen.(0 -- 50) (pair (int_range 0 8) small_nat)))
    (fun (n, extra, ops) ->
      let g = ref (Gen.random_connected (Prng.create ~seed:(n + extra)) ~n ~extra_edges:extra) in
      let m = Graph.edge_count !g in
      let copy = ref (Graph.copy !g) and snap = ref None in
      let ok = ref true in
      let check () =
        let scan = List.length (List.filter (fun e -> not (Graph.is_live_edge !g e)) (List.init m Fun.id)) in
        Graph.refresh !copy ~from:!g;
        ok := !ok && Graph.cleared_edges !g = scan && liveness !copy = liveness !g
      in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 -> Graph.remove_node !g (x mod n)
          | 1 -> Graph.revive_node !g (x mod n)
          | 2 -> if m > 0 then Graph.remove_edge !g (x mod m)
          | 3 -> snap := Some (Graph.snapshot !g)
          | 4 -> Option.iter (Graph.restore !g) !snap
          | 5 ->
              g := Graph.copy !g;
              copy := Graph.copy !g;
              snap := None
          | 6 -> (
              match !snap with
              | Some s ->
                  Graph.refresh s ~from:!g;
                  let probe = Graph.copy !g in
                  Graph.restore probe s;
                  ok := !ok && liveness ~version:false probe = liveness ~version:false !g
              | None -> ())
          | 7 ->
              (* 70 flips: past the 64-entry log of a graph this small *)
              let v = x mod n in
              let live = Graph.is_live_node !g v in
              for _ = 1 to 35 do
                Graph.remove_node !g v;
                Graph.revive_node !g v
              done;
              if not live then Graph.remove_node !g v
          | _ -> check ())
        ops;
      check ();
      !ok)

(* --- construction against the frozen reference (graph_ref.ml) --------- *)

let build f = match f () with g -> Ok g | exception Invalid_argument m -> Error m

(* [g] is the reference build [r]: the same rows, every edge by id (and
   no more), degrees, counts and edge list. *)
let same_as_ref g (r : Graph_ref.t) =
  let c = Graph.csr g and m = Array.length r.edges in
  c.Graph.csr_off = r.off && c.Graph.csr_tgt = r.tgt && c.Graph.csr_eid = r.eid
  && Graph.original_size g = r.n
  && Graph.node_count g = r.n
  && Graph.edge_count g = m
  && Array.for_all (fun (e : Graph.edge) -> Graph.edge g e.id = e) r.edges
  && (match Graph.edge g m with _ -> false | exception Invalid_argument _ -> true)
  && List.for_all (fun v -> Graph.degree g v = r.deg.(v)) (List.init r.n Fun.id)
  && Graph.edges g = Array.to_list r.edges

(* Both builds give equal graphs, or both raise the same message, with
   [who] in place of the reference's "Graph.create". *)
let agrees ?(who = "Graph.create") built reference =
  match (built, reference) with
  | Ok g, Ok r -> same_as_ref g r
  | Error m, Error rm ->
      let k = String.length "Graph.create" in
      m
      = if String.starts_with ~prefix:"Graph.create" rm then
          who ^ String.sub rm k (String.length rm - k)
        else rm
  | _ -> false

(* Random multigraph edge lists on at most 60 nodes: pairs drawn from a
   smaller pool in either orientation, so most lists repeat edges, and
   one list in seven carries a bad endpoint or a self-loop somewhere. *)
let arb_edge_list =
  let open QCheck.Gen in
  let gen =
    int_range 0 60 >>= fun n ->
    int_range 0 150 >>= fun len ->
    int_range 1 (max 1 len) >>= fun pool_size ->
    (if n < 2 then return [||]
     else
       list_repeat pool_size (pair (int_range 0 (n - 1)) (int_range 1 (n - 1)))
       >|= fun ps -> Array.of_list (List.map (fun (a, k) -> (a, (a + k) mod n)) ps))
    >>= fun pool ->
    (if Array.length pool = 0 then return []
     else
       list_repeat len (pair (int_range 0 (Array.length pool - 1)) bool)
       >|= List.map (fun (i, flip) ->
               let a, b = pool.(i) in
               if flip then (b, a) else (a, b)))
    >>= fun edges ->
    let insert_bad =
      int_range 0 (List.length edges) >>= fun at ->
      oneofl [ (-1, 0); (0, n); (n + 3, 1); (n / 2, n / 2); (2, -5) ]
      >|= fun bad ->
      List.filteri (fun i _ -> i < at) edges
      @ (bad :: List.filteri (fun i _ -> i >= at) edges)
    in
    frequency [ (6, return edges); (1, insert_bad) ] >|= fun edges -> (n, edges)
  in
  QCheck.make gen
    ~print:QCheck.Print.(pair int (list (pair int int)))

let prop_create_equals_reference =
  QCheck.Test.make ~name:"create = frozen reference" ~count:400 arb_edge_list
    (fun (n, edges) ->
      let reference = build (fun () -> Graph_ref.create ~n ~edges) in
      agrees (build (fun () -> Graph.create ~n ~edges)) reference
      && agrees ~who:"Graph.of_edges"
           (build (fun () ->
                Graph.of_edges ~n
                  (Array.of_list (List.map fst edges))
                  (Array.of_list (List.map snd edges))))
           reference)

let prop_generators_equal_reference =
  QCheck.Test.make ~name:"generators = frozen reference" ~count:100
    QCheck.(quad (int_range 1 14) (int_range 1 14) (int_range 1 80) (int_range (-3) 120))
    (fun (rows, cols, n, extra) ->
      let seed = (rows * 1_000) + (cols * 100) + n + extra in
      agrees
        (build (fun () -> Gen.grid ~rows ~cols))
        (build (fun () -> Graph_ref.grid ~rows ~cols))
      && agrees
           (build (fun () -> Gen.random_connected (Prng.create ~seed) ~n ~extra_edges:extra))
           (build (fun () ->
                Graph_ref.random_connected (Prng.create ~seed) ~n ~extra_edges:extra)))

let test_large_generators_equal_reference () =
  Alcotest.(check bool) "grid 120x90" true
    (same_as_ref (Gen.grid ~rows:120 ~cols:90) (Graph_ref.grid ~rows:120 ~cols:90));
  Alcotest.(check bool) "random 5000 + 5000" true
    (same_as_ref
       (Gen.random_connected (Prng.create ~seed:7) ~n:5_000 ~extra_edges:5_000)
       (Graph_ref.random_connected (Prng.create ~seed:7) ~n:5_000 ~extra_edges:5_000));
  Alcotest.(check bool) "saturated random 12 + 100" true
    (same_as_ref
       (Gen.random_connected (Prng.create ~seed:8) ~n:12 ~extra_edges:100)
       (Graph_ref.random_connected (Prng.create ~seed:8) ~n:12 ~extra_edges:100))

let test_of_edges_rejects () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Graph.of_edges: endpoint arrays differ in length")
    (fun () -> ignore (Graph.of_edges ~n:3 [| 0; 1 |] [| 1 |]));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Graph.of_edges: negative size") (fun () ->
      ignore (Graph.of_edges ~n:(-1) [||] [||]))

(* A stream over explicit neighbour lists, with its own degree oracle. *)
let of_lists ?degree adj =
  let degree = Option.value degree ~default:(fun v -> List.length adj.(v)) in
  Graph.of_adjacency ~n:(Array.length adj) ~degree ~iter:(fun v f -> List.iter f adj.(v))

let test_of_adjacency_rejects () =
  let rejects name msg ?degree adj =
    Alcotest.check_raises name (Invalid_argument ("Graph.of_adjacency: " ^ msg))
      (fun () -> ignore (of_lists ?degree adj))
  in
  (* the counts agree but node 0 lists one neighbour against degree 2 *)
  rejects "asymmetric stream" "asymmetric stream at node 0"
    ~degree:(fun v -> if v = 0 then 2 else 1)
    [| [ 1 ]; [ 2 ]; [] |];
  rejects "duplicate neighbour" "duplicate edge (0,1)" [| [ 1; 1 ]; [ 0; 0 ] |];
  rejects "self-loop" "self-loop" [| [ 0 ]; [ 1 ] |];
  rejects "bad id" "bad neighbour 5" [| [ 5 ]; [ 0 ] |];
  rejects "more neighbours than degree" "more neighbours than degree"
    ~degree:(fun v -> if v < 2 then 1 else 0)
    [| [ 1; 2 ]; [ 0 ]; [] |];
  rejects "odd total degree" "odd total degree (asymmetric stream)"
    ~degree:(fun v -> if v = 0 then 1 else 0)
    [| [ 1 ]; [] |];
  rejects "negative degree" "negative degree" ~degree:(fun _ -> -1) [| [] |];
  rejects "oracle disagrees" "degree oracle disagrees with stream"
    ~degree:(fun _ -> 2)
    [| [ 1 ]; [ 0 ] |];
  (* degrees 1, 2, 1 match the rows of the path (0,1) (1,2), but node 2
     lists 0, which never listed it, and node 1 omits 0: no row count
     can see it *)
  rejects "lower neighbour never listed" "asymmetric stream at node 2"
    ~degree:(fun v -> if v = 1 then 2 else 1)
    [| [ 1 ]; [ 2 ]; [ 0 ] |];
  (* node 1 omits 0, which listed it, and the oracle agrees with the
     rows rather than with the stream *)
  rejects "lower neighbour omitted" "asymmetric stream at node 1"
    ~degree:(fun _ -> 1)
    [| [ 1 ]; [] |]

(* [of_adjacency] over a random simple graph's neighbour lists, each in
   a shuffled order, gives [create]'s neighbour sets, and exactly
   [create]'s graph over the edges in stream visit order. *)
let prop_of_adjacency_equals_create =
  QCheck.Test.make ~name:"of_adjacency = create" ~count:100
    QCheck.(triple (int_range 1 60) (int_range 0 120) small_nat)
    (fun (n, extra, seed) ->
      let rng = Prng.create ~seed in
      let g = Gen.random_connected rng ~n ~extra_edges:extra in
      let adj =
        Array.init n (fun v ->
            let a = Array.of_list (Graph.neighbours g v) in
            Prng.shuffle rng a;
            Array.to_list a)
      in
      let s = of_lists adj in
      let sorted v h = List.sort compare (Graph.neighbours h v) in
      let visit =
        List.concat_map
          (fun u -> List.filter_map (fun v -> if v > u then Some (u, v) else None) adj.(u))
          (List.init n Fun.id)
      in
      List.for_all (fun v -> sorted v s = sorted v g) (List.init n Fun.id)
      && Graph.edge_count s = Graph.edge_count g
      && same_as_ref s (Graph_ref.create ~n ~edges:visit))

(* Moving one lower mention of a random simple graph's adjacency to
   another lower node keeps every degree and every upper mention, so no
   row count can tell; the build must still raise.  The unchanged
   stream builds [create]'s graph. *)
let prop_of_adjacency_rejects_moved_mention =
  QCheck.Test.make ~name:"of_adjacency rejects a moved lower mention" ~count:200
    QCheck.(triple (int_range 3 60) (int_range 0 120) small_nat)
    (fun (n, extra, seed) ->
      let rng = Prng.create ~seed in
      let g = Gen.random_connected rng ~n ~extra_edges:extra in
      let adj = Array.init n (fun v -> Graph.neighbours g v) in
      (* a node with a lower neighbour and a lower non-neighbour *)
      let movable u =
        List.exists (fun v -> v < u) adj.(u)
        && List.length (List.filter (fun v -> v < u) adj.(u)) < u
      in
      let candidates = List.filter movable (List.init n Fun.id) in
      QCheck.assume (candidates <> []);
      let pick l = List.nth l (Prng.int rng (List.length l)) in
      let u = pick candidates in
      let v = pick (List.filter (fun v -> v < u) adj.(u)) in
      let w =
        pick (List.filter (fun w -> not (List.mem w adj.(u))) (List.init u Fun.id))
      in
      let moved = Array.copy adj in
      moved.(u) <- List.map (fun x -> if x = v then w else x) adj.(u);
      let upper u = List.filter_map (fun v -> if v > u then Some (u, v) else None) in
      let visit = List.concat_map (fun u -> upper u adj.(u)) (List.init n Fun.id) in
      same_as_ref (of_lists adj) (Graph_ref.create ~n ~edges:visit)
      &&
      match of_lists ~degree:(fun x -> List.length adj.(x)) moved with
      | _ -> false
      | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "create basic" `Quick test_create_basic;
    Alcotest.test_case "create rejects" `Quick test_create_rejects;
    Alcotest.test_case "remove edge" `Quick test_remove_edge;
    Alcotest.test_case "remove node" `Quick test_remove_node;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "generator shapes" `Quick test_generators_shapes;
    Alcotest.test_case "petersen 3-regular" `Quick test_petersen_regular;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    Alcotest.test_case "random connected" `Quick test_random_connected;
    Alcotest.test_case "random bipartite" `Quick test_random_bipartite;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "bipartite oracle" `Quick test_bipartite_oracle;
    Alcotest.test_case "two-colouring proper" `Quick test_two_colouring_proper;
    Alcotest.test_case "bridges: path" `Quick test_bridges_path;
    Alcotest.test_case "bridges: cycle" `Quick test_bridges_cycle;
    Alcotest.test_case "bridges: barbell" `Quick test_bridges_barbell;
    Alcotest.test_case "bridges: theta" `Quick test_bridges_theta;
    Alcotest.test_case "bridges: tree" `Quick test_bridges_random_vs_tree;
    Alcotest.test_case "articulation: barbell" `Quick test_articulation_barbell;
    Alcotest.test_case "articulation: path" `Quick test_articulation_path;
    Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
    Alcotest.test_case "analyses respect faults" `Quick test_analyses_respect_faults;
    QCheck_alcotest.to_alcotest prop_random_connected_always_connected;
    QCheck_alcotest.to_alcotest prop_bridges_sound;
    QCheck_alcotest.to_alcotest prop_cleared_count_and_refresh;
    QCheck_alcotest.to_alcotest prop_create_equals_reference;
    QCheck_alcotest.to_alcotest prop_generators_equal_reference;
    Alcotest.test_case "large generators = reference" `Quick
      test_large_generators_equal_reference;
    Alcotest.test_case "of_edges rejects" `Quick test_of_edges_rejects;
    Alcotest.test_case "of_adjacency rejects" `Quick test_of_adjacency_rejects;
    QCheck_alcotest.to_alcotest prop_of_adjacency_equals_create;
    QCheck_alcotest.to_alcotest prop_of_adjacency_rejects_moved_mention;
  ]
