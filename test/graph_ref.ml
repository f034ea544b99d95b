(* Frozen reference copy of graph construction as it stood before
   construction went through endpoint arrays: [create] deduplicating a
   pair list through a polymorphic Hashtbl and filling the CSR from one
   record per edge, and the list-built [grid] and [random_connected]
   generators.  Do not edit
   — test_graph.ml requires [Graph.create], [Graph.of_edges] and the
   rewritten generators to reproduce this copy's edge ids, rows and
   rejections exactly, which is what keeps every trace over a generated
   graph stable across representation changes. *)

module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

type t = {
  n : int;
  edges : Graph.edge array;  (** by id *)
  off : int array;
  tgt : int array;
  eid : int array;
  deg : int array;
}

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative size";
  let seen = Hashtbl.create (List.length edges) in
  let canon =
    List.filter_map
      (fun (a, b) ->
        if a < 0 || a >= n || b < 0 || b >= n then
          invalid_arg (Printf.sprintf "Graph.create: bad endpoint (%d,%d)" a b);
        if a = b then invalid_arg "Graph.create: self-loop";
        let u, v = if a < b then (a, b) else (b, a) in
        if Hashtbl.mem seen (u, v) then None
        else begin
          Hashtbl.add seen (u, v) ();
          Some (u, v)
        end)
      edges
  in
  let edges_arr =
    Array.of_list (List.mapi (fun id (u, v) -> { Graph.id; u; v }) canon)
  in
  let m = Array.length edges_arr in
  let deg = Array.make n 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    edges_arr;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  let pos = Array.sub off 0 (max n 1) in
  let tgt = Array.make (2 * m) 0 in
  let eid = Array.make (2 * m) 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      tgt.(pos.(e.u)) <- e.v;
      eid.(pos.(e.u)) <- e.id;
      pos.(e.u) <- pos.(e.u) + 1;
      tgt.(pos.(e.v)) <- e.u;
      eid.(pos.(e.v)) <- e.id;
      pos.(e.v) <- pos.(e.v) + 1)
    edges_arr;
  { n; edges = edges_arr; off; tgt; eid; deg }

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: positive dims required";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  create ~n:(rows * cols) ~edges:!edges

let random_connected rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Gen.random_connected: n >= 1";
  let present = Hashtbl.create (n + extra_edges) in
  let edges = ref [] in
  let add u v =
    let u, v = if u < v then (u, v) else (v, u) in
    if u <> v && not (Hashtbl.mem present (u, v)) then begin
      Hashtbl.add present (u, v) ();
      edges := (u, v) :: !edges;
      true
    end
    else false
  in
  for v = 1 to n - 1 do
    ignore (add (Prng.int rng v) v)
  done;
  let capacity = (n * (n - 1) / 2) - (n - 1) in
  let target = min extra_edges capacity in
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < target && !attempts < 1000 * (target + 1) do
    incr attempts;
    if n >= 2 then begin
      let u = Prng.int rng n and v = Prng.int rng n in
      if add u v then incr added
    end
  done;
  create ~n ~edges:!edges
