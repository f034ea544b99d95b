(* Distance queries: the landmark-guided search the serve views answer
   with ([Analysis.guided_distances], falling back to the breadth-first
   search when it declines) against the stop-at-last-target BFS
   ([Analysis.target_distances]) it replaced, kept as the reference.
   Each row times one batch of single-source queries with 1, 3 or 1,000
   random live targets, both ways, alternating; the median of 9 batches
   of ms per query is reported, with how often the guided search fell
   back and the nodes its searches settled per query.  Every answer is
   checked against the reference.  A second table gives, per target of
   a budget-free search, settled nodes ÷ (LB + 1), LB the landmark
   bound from the source: the ratios that set the budget factor.

     dune exec --profile release bench/main.exe -- distances
     dune exec bench/main.exe -- distances --smoke   # small graphs, CI *)

module Prng = Symnet_prng.Prng
module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Analysis = Symnet_graph.Analysis

let kill_nodes ~seed k g =
  let n = Graph.original_size g in
  let p = Prng.permutation (Prng.create ~seed) n in
  for i = 0 to min k n - 1 do
    Graph.remove_node g p.(i)
  done;
  g

let kill_edges ~seed k g =
  let m = Graph.edge_count g in
  let p = Prng.permutation (Prng.create ~seed) m in
  for i = 0 to min k m - 1 do
    Graph.remove_edge g p.(i)
  done;
  g

(* (name, graph) at full size, or at smoke size. *)
let families ~smoke =
  let side = if smoke then 40 else 317 in
  let scale k = if smoke then max 1 (k * side * side / 100_489) else k in
  let grid () = Gen.grid ~rows:side ~cols:side in
  let n = side * side in
  [
    (Printf.sprintf "grid %dx%d" side side, fun () -> grid ());
    (Printf.sprintf "grid, %d dead" (scale 3), fun () -> kill_nodes ~seed:1 (scale 3) (grid ()));
    ( Printf.sprintf "grid, %d dead" (scale 5_000),
      fun () -> kill_nodes ~seed:2 (scale 5_000) (grid ()) );
    ( Printf.sprintf "grid, %d dead" (scale 20_000),
      fun () -> kill_nodes ~seed:3 (scale 20_000) (grid ()) );
    ( Printf.sprintf "grid, %d dead edges" (scale 2_000),
      fun () -> kill_edges ~seed:4 (scale 2_000) (grid ()) );
    (Printf.sprintf "path %d" n, fun () -> Gen.path n);
    ( Printf.sprintf "geometric %d" (if smoke then 1_000 else 20_000),
      fun () ->
        if smoke then Gen.random_geometric (Prng.create ~seed:5) ~n:1_000 ~radius:0.067
        else Gen.random_geometric (Prng.create ~seed:5) ~n:20_000 ~radius:0.015 );
    ( Printf.sprintf "random_connected %d" (if smoke then 2_000 else 100_000),
      fun () ->
        let k = if smoke then 2_000 else 100_000 in
        Gen.random_connected (Prng.create ~seed:6) ~n:k ~extra_edges:k );
    ( Printf.sprintf "hypercube 2^%d" (if smoke then 10 else 16),
      fun () -> Gen.hypercube ~dim:(if smoke then 10 else 16) );
  ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let quantile q a =
  if Array.length a = 0 then nan
  else a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Queries of one source and [k] targets, all live nodes. *)
let queries ~seed g ~count k =
  let r = Prng.create ~seed in
  let live () = Graph.nth_live_node g (Prng.int r (Graph.node_count g)) in
  List.init count (fun _ -> ([ live () ], List.init k (fun _ -> live ())))

type row = {
  family : string;
  nodes : int;
  targets : int;
  guided_ms : float;
  bfs_ms : float;
  fallback : float;  (* share of queries the guided search declined *)
  settled : float;  (* mean nodes its searches settled per query *)
}

let run_row ~family g adj sc lm ~count k =
  let qs = queries ~seed:(Graph.original_size g + k) g ~count k in
  let fallbacks = ref 0 and settled = ref 0 in
  let guided (sources, targets) =
    match Analysis.guided_distances lm g sc ~sources ~targets with
    | Some d -> d
    | None -> Analysis.target_distances adj sc ~sources ~targets
  in
  let bfs (sources, targets) = Analysis.target_distances adj sc ~sources ~targets in
  (* counts and the exactness check, outside the timed batches *)
  let wrong = ref 0 in
  List.iter
    (fun ((sources, targets) as q) ->
      (match Analysis.guided_distances lm g sc ~sources ~targets with
      | None -> incr fallbacks
      | Some _ ->
          List.iter
            (fun t ->
              ignore (Analysis.guided_search lm g sc ~sources ~budget:Analysis.budget t);
              settled := !settled + Analysis.last_settled sc)
            targets);
      if guided q <> bfs q then incr wrong)
    qs;
  (* the two sides alternate, and which goes first alternates too, so
     drift in the host's speed lands on both alike *)
  let batches =
    List.init 9 (fun i ->
        let side f () = List.iter (fun q -> ignore (f q)) qs in
        if i mod 2 = 0 then
          let a = time (side guided) in
          (a, time (side bfs))
        else
          let b = time (side bfs) in
          (time (side guided), b))
  in
  let per_query s = s *. 1e3 /. float_of_int count in
  ( {
      family;
      nodes = Graph.node_count g;
      targets = k;
      guided_ms = per_query (median (List.map fst batches));
      bfs_ms = per_query (median (List.map snd batches));
      fallback = float_of_int !fallbacks /. float_of_int count;
      settled =
        float_of_int !settled /. float_of_int (max 1 (count - !fallbacks));
    },
    !wrong )

(* settled ÷ (LB + 1) for each reachable target of budget-free searches *)
let ratios g sc lm ~count =
  let qs = queries ~seed:(Graph.original_size g + 7) g ~count 3 in
  let acc = ref [] in
  List.iter
    (fun (sources, targets) ->
      List.iter
        (fun t ->
          match Analysis.guided_search lm g sc ~sources ~budget:max_int t with
          | Some d when d < max_int ->
              let lb = Analysis.lower_bound lm (List.hd sources) t in
              acc :=
                (float_of_int (Analysis.last_settled sc) /. float_of_int (lb + 1))
                :: !acc
          | _ -> ())
        targets)
    qs;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let run ~smoke =
  let counts = if smoke then [ (1, 20); (3, 20); (1_000, 3) ] else [ (1, 200); (3, 200); (1_000, 20) ] in
  Printf.printf
    "distance queries, ms per query (median of 9 alternating batches):\n\
    \  guided = landmark A* with BFS fallback, bfs = stop-at-last-target BFS\n";
  Printf.printf "  %-22s %7s %5s %9s %9s %6s %8s %9s\n" "family" "live" "T" "guided"
    "bfs" "ratio" "fallback" "settled/q";
  let wrong = ref 0 and slow = ref 0 and rows = ref 0 in
  let spread = ref [] in
  List.iter
    (fun (family, mk) ->
      let g = mk () in
      let adj = Analysis.freeze g and sc = Analysis.scratch g in
      let t0 = Unix.gettimeofday () in
      let lm = Analysis.landmarks g in
      let build_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      List.iter
        (fun (k, count) ->
          let r, w = run_row ~family g adj sc lm ~count k in
          wrong := !wrong + w;
          incr rows;
          let ratio = r.guided_ms /. r.bfs_ms in
          if ratio > 1.2 then incr slow;
          Printf.printf "  %-22s %7d %5d %9.3f %9.3f %6.2f %7.1f%% %9.0f%s\n" r.family r.nodes
            r.targets r.guided_ms r.bfs_ms ratio (100. *. r.fallback) r.settled
            (if w > 0 then "  WRONG" else ""))
        counts;
      spread :=
        (family, build_ms, ratios g sc lm ~count:(if smoke then 20 else 200))
        :: !spread)
    (families ~smoke);
  Printf.printf "  guided slower than 1.2x bfs in %d of %d rows\n" !slow !rows;
  Printf.printf
    "\nsettled / (LB + 1) per reachable target, budget-free searches (budget factor %d)\n"
    Analysis.budget;
  Printf.printf "  %-22s %9s %8s %8s %8s %8s %8s\n" "family" "build ms" "p50" "p90" "p99"
    "max" "> budget";
  List.iter
    (fun (family, build_ms, a) ->
      let over =
        Array.fold_left (fun k x -> if x > float_of_int Analysis.budget then k + 1 else k) 0 a
      in
      Printf.printf "  %-22s %9.1f %8.2f %8.2f %8.2f %8.2f %7.1f%%\n" family build_ms
        (quantile 0.5 a) (quantile 0.9 a) (quantile 0.99 a)
        (if Array.length a = 0 then nan else a.(Array.length a - 1))
        (100. *. float_of_int over /. float_of_int (max 1 (Array.length a))))
    (List.rev !spread);
  if !wrong > 0 then begin
    Printf.printf "  %d queries answered differently from the BFS\n" !wrong;
    exit 1
  end
