module Prng = Symnet_prng.Prng

let path n =
  if n < 1 then invalid_arg "Gen.path: n >= 1 required";
  Graph.create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n >= 3 required";
  Graph.create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n ~edges:!edges

let star n =
  if n < 2 then invalid_arg "Gen.star: n >= 2 required";
  Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

(* Edge ids descend with the row-major scan (right edge, then down
   edge, per node).  Every seeded trace over a grid depends on this
   numbering; test/graph_ref.ml pins it. *)
let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: positive dims required";
  let m = (rows * (cols - 1)) + ((rows - 1) * cols) in
  let us = Array.make m 0 and vs = Array.make m 0 in
  let id = ref m in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let v = (r * cols) + c in
      if c + 1 < cols then begin
        decr id;
        us.(!id) <- v;
        vs.(!id) <- v + 1
      end;
      if r + 1 < rows then begin
        decr id;
        us.(!id) <- v;
        vs.(!id) <- v + cols
      end
    done
  done;
  Graph.of_edges ~n:(rows * cols) us vs

let hypercube ~dim =
  if dim < 1 then invalid_arg "Gen.hypercube: dim >= 1 required";
  let n = 1 lsl dim in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let w = v lxor (1 lsl b) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.create ~n ~edges:!edges

let complete_binary_tree ~depth =
  if depth < 0 then invalid_arg "Gen.complete_binary_tree: depth >= 0";
  let n = (1 lsl (depth + 1)) - 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / 2, v) :: !edges
  done;
  Graph.create ~n ~edges:!edges

let theta a b c =
  if a < 0 || b < 0 || c < 0 then invalid_arg "Gen.theta: negative arm";
  if a + b + c = 0 then invalid_arg "Gen.theta: at least one internal node";
  (* terminals s=0, t=1; arms use fresh internal node ids *)
  let n = 2 + a + b + c in
  let edges = ref [] in
  let next = ref 2 in
  let arm len =
    if len = 0 then edges := (0, 1) :: !edges
    else begin
      let first = !next in
      next := !next + len;
      edges := (0, first) :: !edges;
      for i = 0 to len - 2 do
        edges := (first + i, first + i + 1) :: !edges
      done;
      edges := (first + len - 1, 1) :: !edges
    end
  in
  arm a;
  arm b;
  arm c;
  Graph.create ~n ~edges:!edges

let barbell k =
  if k < 2 then invalid_arg "Gen.barbell: clique size >= 2";
  let edges = ref [] in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      edges := (u, v) :: !edges;
      edges := (k + u, k + v) :: !edges
    done
  done;
  edges := (k - 1, k) :: !edges;
  Graph.create ~n:(2 * k) ~edges:!edges

let lollipop ~clique ~tail =
  if clique < 2 || tail < 1 then invalid_arg "Gen.lollipop: bad sizes";
  let edges = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      edges := (u, v) :: !edges
    done
  done;
  edges := (clique - 1, clique) :: !edges;
  for i = 0 to tail - 2 do
    edges := (clique + i, clique + i + 1) :: !edges
  done;
  Graph.create ~n:(clique + tail) ~edges:!edges

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (i + 5, ((i + 2) mod 5) + 5)) in
  Graph.create ~n:10 ~edges:(outer @ spokes @ inner)

let random_tree rng n =
  if n < 1 then invalid_arg "Gen.random_tree: n >= 1";
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (Prng.int rng v, v) :: !edges
  done;
  Graph.create ~n ~edges:!edges

let gnp rng ~n ~p =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng ~p then edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n ~edges:!edges

module Int_table = Hashtbl.Make (Int)

let random_connected rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Gen.random_connected: n >= 1";
  let capacity = (n * (n - 1) / 2) - (n - 1) in
  let target = min extra_edges capacity in
  (* Pair (u, v), u < v, is keyed u * n + v.  Accepted pairs fill the
     arrays from the end, so edge ids run newest first: every seeded
     trace over a random graph depends on this numbering, which
     test/graph_ref.ml pins. *)
  let size = n - 1 + max 0 target in
  let present = Int_table.create size in
  let us = Array.make size 0 and vs = Array.make size 0 in
  let first = ref size in
  let add a b =
    let u = if a < b then a else b and v = if a < b then b else a in
    if u <> v && not (Int_table.mem present ((u * n) + v)) then begin
      Int_table.add present ((u * n) + v) ();
      decr first;
      us.(!first) <- u;
      vs.(!first) <- v;
      true
    end
    else false
  in
  for v = 1 to n - 1 do
    ignore (add (Prng.int rng v) v)
  done;
  let added = ref 0 in
  (* Bounded retries: capacity check above guarantees progress is possible
     but we still cap attempts defensively for tiny dense graphs. *)
  let attempts = ref 0 in
  while !added < target && !attempts < 1000 * (target + 1) do
    incr attempts;
    if n >= 2 then begin
      let u = Prng.int rng n and v = Prng.int rng n in
      if add u v then incr added
    end
  done;
  let k = size - !first in
  Graph.of_edges ~n (Array.sub us !first k) (Array.sub vs !first k)

let random_geometric rng ~n ~radius =
  let pts = Array.init n (fun _ -> (Prng.float rng, Prng.float rng)) in
  let r2 = radius *. radius in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let xu, yu = pts.(u) and xv, yv = pts.(v) in
      let dx = xu -. xv and dy = yu -. yv in
      if (dx *. dx) +. (dy *. dy) <= r2 then edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n ~edges:!edges

let random_bipartite rng ~left ~right ~p =
  if left < 1 || right < 1 then invalid_arg "Gen.random_bipartite: bad sides";
  let n = left + right in
  let edges = ref [] in
  (* Spanning zig-zag L0-R0-L1-R1-... keeps the graph connected; leftover
     nodes on the bigger side attach to the first node of the other side,
     so every added edge crosses the bipartition. *)
  let k = min left right in
  for i = 0 to k - 1 do
    edges := (i, left + i) :: !edges;
    if i + 1 < k then edges := (left + i, i + 1) :: !edges
  done;
  for u = k to left - 1 do
    edges := (u, left) :: !edges
  done;
  for v = k to right - 1 do
    edges := (0, left + v) :: !edges
  done;
  for u = 0 to left - 1 do
    for v = left to n - 1 do
      if Prng.bernoulli rng ~p then edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n ~edges:!edges

(* --- streamed generators (sharded / out-of-core construction) --------- *)

type stream = {
  stream_n : int;
  stream_degree : int -> int;
  stream_iter : int -> (int -> unit) -> unit;
}

let graph_of_stream s =
  Graph.of_adjacency ~n:s.stream_n ~degree:s.stream_degree ~iter:s.stream_iter

let circulant_stream ~n ~offsets =
  if n < 2 then invalid_arg "Gen.circulant_stream: n >= 2 required";
  let offsets = List.sort_uniq compare offsets in
  List.iter
    (fun o ->
      if o < 1 || 2 * o > n then
        invalid_arg
          (Printf.sprintf "Gen.circulant_stream: offset %d not in 1..n/2" o))
    offsets;
  let offs = Array.of_list offsets in
  let k = Array.length offs in
  (* an antipodal offset (2o = n) contributes one neighbour, not two *)
  let degree _ =
    let d = ref 0 in
    for i = 0 to k - 1 do
      d := !d + if 2 * offs.(i) = n then 1 else 2
    done;
    !d
  in
  let iter v f =
    for i = 0 to k - 1 do
      let o = offs.(i) in
      f ((v + o) mod n);
      if 2 * o <> n then f ((v - o + n) mod n)
    done
  in
  { stream_n = n; stream_degree = degree; stream_iter = iter }
