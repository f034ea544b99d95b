(* The centralized oracles checked against an independent reference.
   Most tests, the symbench serve check and the daemon use [Analysis] as
   their own oracle, so a wrong kernel would agree with itself there.
   [Ref] below is the former Queue- and list-based implementation, kept
   verbatim; every CSR kernel must return exactly what it returns —
   list order, colourings and the DFS forest included — on random
   graphs of several families under node and edge kills and
   revivals. *)

module Gen = Symnet_graph.Gen
module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Prng = Symnet_prng.Prng

module Ref = struct
  let distances g ~sources =
    let n = Graph.original_size g in
    let dist = Array.make n max_int in
    let q = Queue.create () in
    List.iter
      (fun s ->
        if Graph.is_live_node g s && dist.(s) = max_int then begin
          dist.(s) <- 0;
          Queue.add s q
        end)
      sources;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Graph.iter_neighbours g v (fun w ->
          if dist.(w) = max_int then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
    done;
    dist

  let component_of g s =
    if not (Graph.is_live_node g s) then
      invalid_arg "Analysis.component_of: dead node";
    let dist = distances g ~sources:[ s ] in
    Graph.nodes g |> List.filter (fun v -> dist.(v) < max_int)

  let components g =
    let seen = Array.make (Graph.original_size g) false in
    Graph.nodes g
    |> List.filter_map (fun v ->
           if seen.(v) then None
           else begin
             let comp = component_of g v in
             List.iter (fun w -> seen.(w) <- true) comp;
             Some comp
           end)

  let is_connected g =
    match components g with [] | [ _ ] -> true | _ -> false

  let eccentricity g v =
    let dist = distances g ~sources:[ v ] in
    Array.fold_left (fun m d -> if d < max_int then max m d else m) 0 dist

  let two_colouring g =
    let n = Graph.original_size g in
    let colour = Array.make n (-1) in
    let ok = ref true in
    let visit s =
      if colour.(s) = -1 then begin
        colour.(s) <- 0;
        let q = Queue.create () in
        Queue.add s q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          Graph.iter_neighbours g v (fun w ->
              if colour.(w) = -1 then begin
                colour.(w) <- 1 - colour.(v);
                Queue.add w q
              end
              else if colour.(w) = colour.(v) then ok := false)
        done
      end
    in
    List.iter visit (Graph.nodes g);
    if !ok then Some (Array.map (fun c -> if c = -1 then 0 else c) colour)
    else None

  type lowlink = {
    bridge_ids : int list;
    cut_nodes : int list;
    tree_edges : int list;
  }

  let lowlink g =
    let n = Graph.original_size g in
    let disc = Array.make n (-1) in
    let low = Array.make n max_int in
    let counter = ref 0 in
    let bridge_ids = ref [] in
    let cut = Array.make n false in
    let tree_edges = ref [] in
    let dfs root =
      let stack = ref [ (root, -1, ref (Graph.incident g root)) ] in
      disc.(root) <- !counter;
      low.(root) <- !counter;
      incr counter;
      let root_children = ref 0 in
      while !stack <> [] do
        match !stack with
        | [] -> assert false
        | (v, parent_edge, rest) :: tl -> (
            match !rest with
            | [] -> (
                stack := tl;
                match tl with
                | [] -> ()
                | (u, _, _) :: _ ->
                    low.(u) <- min low.(u) low.(v);
                    if low.(v) > disc.(u) then
                      bridge_ids := parent_edge :: !bridge_ids;
                    if u <> root && low.(v) >= disc.(u) then cut.(u) <- true;
                    if u = root then incr root_children)
            | e :: es ->
                rest := es;
                let w = if (e : Graph.edge).u = v then e.v else e.u in
                if e.id = parent_edge then ()
                else if disc.(w) = -1 then begin
                  disc.(w) <- !counter;
                  low.(w) <- !counter;
                  incr counter;
                  tree_edges := e.id :: !tree_edges;
                  stack := (w, e.id, ref (Graph.incident g w)) :: !stack
                end
                else low.(v) <- min low.(v) disc.(w))
      done;
      if !root_children >= 2 then cut.(root) <- true
    in
    List.iter (fun v -> if disc.(v) = -1 then dfs v) (Graph.nodes g);
    let cut_nodes = Graph.nodes g |> List.filter (fun v -> cut.(v)) in
    {
      bridge_ids = List.sort compare !bridge_ids;
      cut_nodes;
      tree_edges = List.sort compare !tree_edges;
    }
end

(* --- graphs ------------------------------------------------------------- *)

(* Disjoint union: [b]'s nodes follow [a]'s, and the edge list is
   shuffled so edge ids follow no structural order. *)
let union rng a b =
  let na = Graph.original_size a in
  let ends g ofs =
    List.map (fun (e : Graph.edge) -> (e.u + ofs, e.v + ofs)) (Graph.edges g)
  in
  let es = Array.of_list (ends a 0 @ ends b na) in
  for i = Array.length es - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = es.(i) in
    es.(i) <- es.(j);
    es.(j) <- t
  done;
  Graph.create ~n:(na + Graph.original_size b) ~edges:(Array.to_list es)

let isolated k = Graph.create ~n:k ~edges:[]

let build (fam, a, b, seed) =
  let rng = Prng.create ~seed in
  match fam mod 6 with
  | 0 -> Gen.grid ~rows:(1 + (a mod 7)) ~cols:(1 + (b mod 7))
  | 1 -> Gen.random_connected rng ~n:(1 + (a mod 40)) ~extra_edges:(b mod 30)
  | 2 -> Gen.barbell (2 + (a mod 6))
  | 3 -> Gen.random_tree rng (1 + (a mod 40))
  | 4 ->
      union rng
        (union rng (Gen.grid ~rows:(1 + (a mod 4)) ~cols:3)
           (Gen.random_connected rng ~n:(1 + (b mod 20)) ~extra_edges:(a mod 9)))
        (union rng (Gen.random_tree rng (1 + (b mod 9))) (isolated (a mod 4)))
  | _ -> isolated (a mod 5)

(* Kill nodes (0), kill edges by id (1), revive nodes (2). *)
let mutate g ops =
  let n = Graph.original_size g in
  let m = List.length (Graph.edges g) in
  List.iter
    (fun (kind, x) ->
      match kind mod 3 with
      | 0 -> if n > 0 then Graph.remove_node g (x mod n)
      | 1 -> if m > 0 then Graph.remove_edge g (x mod m)
      | _ -> if n > 0 then Graph.revive_node g (x mod n))
    ops

let arb_case =
  QCheck.(
    pair
      (quad (int_range 0 5) small_nat small_nat small_nat)
      (pair
         (list_of_size Gen.(0 -- 25) (pair (int_range 0 2) small_nat))
         (list_of_size Gen.(0 -- 5) (int_range (-2) 60))))

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* The oracle value of [f] on [g], or [None] when it raises. *)
let result f g = match f g with x -> Some x | exception Invalid_argument _ -> None

let agree g sources =
  let n = Graph.original_size g in
  let nodes = List.init (n + 2) (fun v -> v - 1) in
  Analysis.distances g ~sources = Ref.distances g ~sources
  && Analysis.distances g ~sources:[] = Ref.distances g ~sources:[]
  && Analysis.components g = Ref.components g
  && Analysis.is_connected g = Ref.is_connected g
  && Analysis.two_colouring g = Ref.two_colouring g
  && Analysis.is_bipartite g = (Ref.two_colouring g <> None)
  && (let r = Ref.lowlink g in
      Analysis.bridges g = r.bridge_ids
      && Analysis.articulation_points g = r.cut_nodes
      && Analysis.spanning_tree_edges g = r.tree_edges)
  && List.for_all
       (fun v ->
         Analysis.eccentricity g v = Ref.eccentricity g v
         &&
         if Graph.is_live_node g v then
           Analysis.component_of g v = Ref.component_of g v
         else raises (fun () -> Analysis.component_of g v))
       nodes
  && result Analysis.diameter g
     = result
         (fun g ->
           if Graph.node_count g = 0 || not (Ref.is_connected g) then
             invalid_arg "diameter"
           else
             List.fold_left (fun m v -> max m (Ref.eccentricity g v)) 0 (Graph.nodes g))
         g
  &&
  let labels, k = Analysis.component_labels g in
  let comps = Ref.components g in
  k = List.length comps
  && Array.length labels = n
  && List.for_all (fun v -> Graph.is_live_node g v || labels.(v) = -1) (List.init n Fun.id)
  && List.for_all2
       (fun i comp -> List.for_all (fun v -> labels.(v) = i) comp)
       (List.init k Fun.id) comps

let prop_kernels_match_reference =
  QCheck.Test.make ~name:"CSR kernels = Queue/list reference" ~count:300
    arb_case (fun (shape, (ops, sources)) ->
      let g = build shape in
      (* the intact graph, then after the mutations *)
      agree g sources
      && (mutate g ops;
          agree g sources))

(* Hand-picked corners: the empty graph, isolated nodes, a dead-only
   graph, sources that are all dead, duplicated or out of range. *)
let test_corner_cases () =
  let check name g sources =
    Alcotest.(check bool) name true (agree g sources)
  in
  check "empty graph" (isolated 0) [ 0; 1 ];
  check "isolated nodes" (isolated 4) [ 2; 2; 3 ];
  let g = Gen.path 5 in
  List.iter (Graph.remove_node g) [ 0; 1; 2; 3; 4 ];
  check "every node dead" g [ 0; 4 ];
  let g = Gen.grid ~rows:3 ~cols:4 in
  Graph.remove_node g 5;
  check "dead and duplicated sources" g [ 5; 5; 0; 0; 11; -1; 12 ];
  Graph.revive_node g 5;
  check "revived source" g [ 5 ];
  let g = Gen.barbell 4 in
  Graph.remove_edge g 0;
  check "barbell, an edge cut" g [ 0; 7 ]

(* A long path forces the DFS to its full depth; a wide star puts
   thousands of nodes in one BFS level, and 2500 sources fill half the
   queue before the search starts. *)
let test_deep_and_wide () =
  let p = Gen.path 3000 in
  Alcotest.(check (list int)) "path: every edge a bridge"
    (Ref.lowlink p).Ref.bridge_ids (Analysis.bridges p);
  Alcotest.(check (list int)) "path: cut vertices"
    (Ref.lowlink p).Ref.cut_nodes (Analysis.articulation_points p);
  let s = Gen.star 5000 in
  Alcotest.(check bool) "star: distances" true
    (Analysis.distances s ~sources:[ 3 ] = Ref.distances s ~sources:[ 3 ]);
  Alcotest.(check bool) "star: multi-source wide frontier" true
    (let sources = List.init 2500 (fun i -> (2 * i) + 1) in
     Analysis.distances s ~sources = Ref.distances s ~sources)

(* --- landmark-guided distances ------------------------------------------ *)

(* The oracle families, plus a dense expander (2000 nodes, 2000 chords)
   on which the guided search overruns its budget and the breadth-first
   search answers. *)
let build_guided (fam, a, b, seed) =
  if fam = 6 then
    Gen.random_connected (Prng.create ~seed) ~n:2000 ~extra_edges:2000
  else build (fam, a, b, seed)

(* The reference distances read at [targets]. *)
let reference g ~sources ~targets =
  let n = Graph.original_size g in
  let want = Ref.distances g ~sources in
  List.map (fun t -> if t >= 0 && t < n then want.(t) else max_int) targets

(* Mutations, then the landmark table, then more mutations: the table
   is built once from a graph with dead nodes and edges and must hold
   after later kills and revivals, because it reads only the structure.
   The scratch is taken last, from the graph the queries see.  Several
   queries run through it; ids range over -2 .. n + 1, so lists hold
   dead, out-of-range and duplicated ids, and a query may ask its own
   sources as targets.  Both the budgeted policy (an answer or [None])
   and every target's budget-free search must equal the reference. *)
let prop_guided_match_reference =
  QCheck.Test.make ~name:"guided distances = reference" ~count:300
    QCheck.(
      triple
        (quad (int_range 0 6) small_nat small_nat small_nat)
        (pair
           (list_of_size Gen.(0 -- 12) (pair (int_range 0 2) small_nat))
           (list_of_size Gen.(0 -- 12) (pair (int_range 0 2) small_nat)))
        (list_of_size Gen.(1 -- 6)
           (triple
              (list_of_size Gen.(0 -- 4) small_nat)
              (list_of_size Gen.(0 -- 5) small_nat)
              bool)))
    (fun (shape, (before, after), queries) ->
      let g = build_guided shape in
      mutate g before;
      let lm = Analysis.landmarks g in
      mutate g after;
      let sc = Analysis.scratch g in
      let n = Graph.original_size g in
      let id x = (x mod (n + 4)) - 2 in
      List.for_all
        (fun (srcs, tgts, echo) ->
          let sources = List.map id srcs in
          let targets = List.map id tgts @ if echo then sources else [] in
          let want = reference g ~sources ~targets in
          (match Analysis.guided_distances lm g sc ~sources ~targets with
          | Some d -> d = want
          | None -> true)
          && List.for_all2
               (fun t w ->
                 Analysis.guided_search lm g sc ~sources ~budget:max_int t
                 = Some w)
               targets want)
        queries)

(* The policy on fixed inputs.  On a 30x30 grid with dead nodes a
   target whose budget, 64 x (LB + 1) settled nodes, is below the live
   node count is answered by the guided search, and a far one by the
   breadth-first search.  On the dense expander a search overruns, so
   [guided_distances] declines while the budget-free search still
   answers exactly. *)
let test_guided_policy () =
  let g = Gen.grid ~rows:30 ~cols:30 in
  List.iter (Graph.remove_node g) [ 31; 62; 400; 401 ];
  let lm = Analysis.landmarks g and sc = Analysis.scratch g in
  let sources = [ 0 ] and targets = [ 93; 3 ] in
  Alcotest.(check (option (list int))) "grid: answered by the guided search"
    (Some (reference g ~sources ~targets))
    (Analysis.guided_distances lm g sc ~sources ~targets);
  Alcotest.(check (option (list int))) "grid: a far target declined" None
    (Analysis.guided_distances lm g sc ~sources ~targets:[ 899 ]);
  let g = build_guided (6, 0, 0, 1) in
  let lm = Analysis.landmarks g and sc = Analysis.scratch g in
  let r = Prng.create ~seed:4 in
  let declined = ref 0 in
  for _ = 1 to 20 do
    let sources = [ Prng.int r 2000 ] and t = Prng.int r 2000 in
    (match Analysis.guided_distances lm g sc ~sources ~targets:[ t ] with
    | None -> incr declined
    | Some d ->
        Alcotest.(check (list int)) "expander answer" (reference g ~sources ~targets:[ t ]) d);
    Alcotest.(check (option (list int))) "expander: budget-free search"
      (Some (reference g ~sources ~targets:[ t ]))
      (Option.map (fun d -> [ d ])
         (Analysis.guided_search lm g sc ~sources ~budget:max_int t))
  done;
  Alcotest.(check bool) "expander: the fallback fires" true (!declined > 0)

(* On an intact grid the landmarks are its corners and the bound is the
   Manhattan distance between every pair of nodes. *)
let test_bound_is_manhattan () =
  let side = 20 in
  let g = Gen.grid ~rows:side ~cols:side in
  let lm = Analysis.landmarks g in
  for u = 0 to (side * side) - 1 do
    for v = 0 to (side * side) - 1 do
      let manhattan = abs ((u / side) - (v / side)) + abs ((u mod side) - (v mod side)) in
      if Analysis.lower_bound lm u v <> manhattan then
        Alcotest.failf "bound %d -> %d is %d, Manhattan %d" u v
          (Analysis.lower_bound lm u v) manhattan
    done
  done

(* A table serves the graph it was built from and every copy (they
   share the rows); any other graph's rows raise, even an identical
   grid's. *)
let test_landmarks_other_graph () =
  let g = Gen.grid ~rows:5 ~cols:5 in
  let lm = Analysis.landmarks g in
  let copy = Graph.copy g in
  Graph.remove_node copy 6;
  Alcotest.(check (option int)) "a copy shares the rows"
    (Some (List.hd (reference copy ~sources:[ 0 ] ~targets:[ 12 ])))
    (Analysis.guided_search lm copy (Analysis.scratch copy) ~sources:[ 0 ]
       ~budget:max_int 12);
  let other = Gen.grid ~rows:5 ~cols:5 in
  Alcotest.check_raises "another graph's rows"
    (Invalid_argument "Analysis: landmarks built from another graph") (fun () ->
      ignore
        (Analysis.guided_distances lm other (Analysis.scratch other)
           ~sources:[ 0 ] ~targets:[ 12 ]))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernels_match_reference;
    Alcotest.test_case "corner cases = reference" `Quick test_corner_cases;
    Alcotest.test_case "deep DFS, wide frontier = reference" `Quick
      test_deep_and_wide;
    QCheck_alcotest.to_alcotest prop_guided_match_reference;
    Alcotest.test_case "guided policy: answers and declines" `Quick
      test_guided_policy;
    Alcotest.test_case "intact grid: bound = Manhattan" `Quick
      test_bound_is_manhattan;
    Alcotest.test_case "landmarks of another graph raise" `Quick
      test_landmarks_other_graph;
  ]
