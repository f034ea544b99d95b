type edge = { id : int; u : int; v : int }

(* Adjacency is CSR (compressed sparse row): [off] has n+1 entries and
   slots [off.(v) .. off.(v+1)-1] of the flat [tgt]/[eid] arrays hold
   node v's neighbours and the ids of the connecting edges, ascending by
   edge id.  The arrays are built once at [create] and never change;
   faults only flip liveness bits, and every iteration filters on them.
   [deg] caches the live degree (incident edges with the edge and both
   endpoints alive) and is maintained incrementally by the fault
   primitives. *)
type t = {
  n : int;
  edges_arr : edge array;
  node_alive : bool array;
  edge_alive : bool array;
  off : int array; (* n + 1 CSR row offsets *)
  tgt : int array; (* 2m neighbour node per slot *)
  eid : int array; (* 2m edge id per slot *)
  deg : int array; (* live degree, maintained on deletion *)
  mutable live_nodes : int;
  mutable live_edges : int;
  mutable version : int; (* bumped on every effective deletion *)
  mutable live_index : int array;
      (* Fenwick (binary indexed) tree over node liveness, 1-indexed with
         n + 1 cells, backing [nth_live_node]; [||] until the first call
         builds it.  The fault primitives keep it current in O(log n);
         [copy] does not carry it and [restore] drops it. *)
}

let original_size g = g.n

let check_node g v =
  if v < 0 || v >= g.n then invalid_arg (Printf.sprintf "Graph: bad node %d" v)

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
  let edges_arr = Array.of_list (List.mapi (fun id (u, v) -> { id; u; v }) canon) in
  let m = Array.length edges_arr in
  let deg = Array.make n 0 in
  Array.iter
    (fun e ->
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
  (* Filling in ascending edge-id order keeps each row ascending by edge
     id — the iteration order the list-based representation had. *)
  Array.iter
    (fun e ->
      tgt.(pos.(e.u)) <- e.v;
      eid.(pos.(e.u)) <- e.id;
      pos.(e.u) <- pos.(e.u) + 1;
      tgt.(pos.(e.v)) <- e.u;
      eid.(pos.(e.v)) <- e.id;
      pos.(e.v) <- pos.(e.v) + 1)
    edges_arr;
  {
    n;
    edges_arr;
    node_alive = Array.make n true;
    edge_alive = Array.make m true;
    off;
    tgt;
    eid;
    deg;
    live_nodes = n;
    live_edges = m;
    version = 0;
    live_index = [||];
  }

(* The liveness index is not copied: copies back snapshots
   ([View.take]) that never ask for a node by rank, and a copy that does
   builds its own. *)
let copy g =
  {
    g with
    node_alive = Array.copy g.node_alive;
    edge_alive = Array.copy g.edge_alive;
    deg = Array.copy g.deg;
    live_index = [||];
  }

let node_count g = g.live_nodes
let edge_count g = g.live_edges

let is_live_node g v = v >= 0 && v < g.n && g.node_alive.(v)

let is_live_edge g e =
  e >= 0 && e < Array.length g.edges_arr && g.edge_alive.(e)

let edge g id =
  if id < 0 || id >= Array.length g.edges_arr then
    invalid_arg (Printf.sprintf "Graph.edge: bad id %d" id);
  g.edges_arr.(id)

let iter_live_incident g v f =
  check_node g v;
  if g.node_alive.(v) then
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      let id = g.eid.(i) in
      if g.edge_alive.(id) then begin
        let w = g.tgt.(i) in
        if g.node_alive.(w) then f g.edges_arr.(id) w
      end
    done

(* The allocation-free hot path: no edge record is materialised. *)
let iter_neighbours g v f =
  check_node g v;
  if g.node_alive.(v) then
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      if g.edge_alive.(g.eid.(i)) then begin
        let w = g.tgt.(i) in
        if g.node_alive.(w) then f w
      end
    done

let edge_between g a b =
  if not (is_live_node g a && is_live_node g b) then None
  else begin
    let found = ref None in
    iter_live_incident g a (fun e w -> if w = b then found := Some e);
    !found
  end

let mem_edge g a b = edge_between g a b <> None

let degree g v = if is_live_node g v then g.deg.(v) else 0

let nodes g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if g.node_alive.(v) then acc := v :: !acc
  done;
  !acc

let version g = g.version

(* --- liveness rank index ------------------------------------------------ *)

(* [live_index.(i)] holds the number of live nodes among ids
   [i - lowbit i .. i - 1] (Fenwick layout, 1-indexed), so a liveness
   flip touches O(log n) cells and the k-th live node is one O(log n)
   descent.  Built lazily: most graphs are never asked for a node by
   rank, and those that are (chaos victim selection) pay the O(n) build
   once, inside the run that needs it. *)

let index_add idx v d =
  let n = Array.length idx - 1 in
  let i = ref (v + 1) in
  while !i <= n do
    idx.(!i) <- idx.(!i) + d;
    i := !i + (!i land (- !i))
  done

let build_live_index g =
  let idx = Array.make (g.n + 1) 0 in
  for v = 0 to g.n - 1 do
    if g.node_alive.(v) then idx.(v + 1) <- 1
  done;
  for i = 1 to g.n do
    let j = i + (i land (-i)) in
    if j <= g.n then idx.(j) <- idx.(j) + idx.(i)
  done;
  idx

let nth_live_node g k =
  if k < 0 || k >= g.live_nodes then
    invalid_arg (Printf.sprintf "Graph.nth_live_node: rank %d out of range" k);
  if Array.length g.live_index = 0 then g.live_index <- build_live_index g;
  let idx = g.live_index in
  (* descend from the largest power of two <= n: [pos] is the longest
     prefix holding at most k live nodes, so node [pos] is the k-th *)
  let step = ref 1 in
  while !step * 2 <= g.n do
    step := !step * 2
  done;
  let pos = ref 0 and rem = ref (k + 1) in
  while !step > 0 do
    let nxt = !pos + !step in
    if nxt <= g.n && idx.(nxt) < !rem then begin
      pos := nxt;
      rem := !rem - idx.(nxt)
    end;
    step := !step lsr 1
  done;
  !pos

let max_degree g =
  let m = ref 0 in
  for v = 0 to g.n - 1 do
    if g.node_alive.(v) && g.deg.(v) > !m then m := g.deg.(v)
  done;
  !m

let edges g =
  Array.to_list g.edges_arr
  |> List.filter (fun e ->
         g.edge_alive.(e.id) && g.node_alive.(e.u) && g.node_alive.(e.v))

let neighbours g v =
  let acc = ref [] in
  iter_neighbours g v (fun w -> acc := w :: !acc);
  List.rev !acc

let iter_nodes g f =
  for v = 0 to g.n - 1 do
    if g.node_alive.(v) then f v
  done

let iter_edges g f = List.iter f (edges g)

let fold_neighbours g v ~init ~f =
  let acc = ref init in
  iter_neighbours g v (fun w -> acc := f !acc w);
  !acc

let incident g v =
  let acc = ref [] in
  iter_live_incident g v (fun e _ -> acc := e :: !acc);
  List.rev !acc

let live_edge_endpoints_live g id =
  let e = g.edges_arr.(id) in
  g.edge_alive.(id) && g.node_alive.(e.u) && g.node_alive.(e.v)

let remove_edge g id =
  if id < 0 || id >= Array.length g.edges_arr then
    invalid_arg (Printf.sprintf "Graph.remove_edge: bad id %d" id);
  (* The version must move whenever the liveness *bit* flips, not only
     when the edge was observably live: an edge killed while an endpoint
     is down changes what a later [revive_node] brings back, and
     version-keyed caches must see that. *)
  if g.edge_alive.(id) then begin
    if live_edge_endpoints_live g id then begin
      let e = g.edges_arr.(id) in
      g.live_edges <- g.live_edges - 1;
      g.deg.(e.u) <- g.deg.(e.u) - 1;
      g.deg.(e.v) <- g.deg.(e.v) - 1
    end;
    g.edge_alive.(id) <- false;
    g.version <- g.version + 1
  end

let remove_edge_between g a b =
  match edge_between g a b with None -> () | Some e -> remove_edge g e.id

let remove_node g v =
  check_node g v;
  if g.node_alive.(v) then begin
    (* Incident live edges die with the node: update the survivors'
       cached degrees and the live-edge count before flipping liveness.
       Note the edge liveness *bits* are untouched — an edge is live iff
       its own bit is set and both endpoints are alive — which is what
       lets [revive_node] bring a crashed node's edges back without a
       record of why each one went down. *)
    let dying = ref 0 in
    iter_live_incident g v (fun _ w ->
        incr dying;
        g.deg.(w) <- g.deg.(w) - 1);
    g.live_edges <- g.live_edges - !dying;
    g.deg.(v) <- 0;
    g.node_alive.(v) <- false;
    g.live_nodes <- g.live_nodes - 1;
    if Array.length g.live_index > 0 then index_add g.live_index v (-1);
    g.version <- g.version + 1
  end

let revive_node g v =
  check_node g v;
  if not g.node_alive.(v) then begin
    g.node_alive.(v) <- true;
    (* Resurrect exactly the incident edges whose own bit survived and
       whose other endpoint is alive; explicitly killed edges stay dead,
       and edges towards still-down neighbours come back when (if) those
       neighbours revive — their rows share the same rule. *)
    let back = ref 0 in
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      if g.edge_alive.(g.eid.(i)) && g.node_alive.(g.tgt.(i)) && g.tgt.(i) <> v
      then begin
        incr back;
        g.deg.(g.tgt.(i)) <- g.deg.(g.tgt.(i)) + 1
      end
    done;
    g.deg.(v) <- !back;
    g.live_edges <- g.live_edges + !back;
    g.live_nodes <- g.live_nodes + 1;
    if Array.length g.live_index > 0 then index_add g.live_index v 1;
    g.version <- g.version + 1
  end

(* --- liveness snapshots ----------------------------------------------- *)

type snapshot = {
  s_node_alive : bool array;
  s_edge_alive : bool array;
  s_deg : int array;
  s_live_nodes : int;
  s_live_edges : int;
}

let snapshot g =
  {
    s_node_alive = Array.copy g.node_alive;
    s_edge_alive = Array.copy g.edge_alive;
    s_deg = Array.copy g.deg;
    s_live_nodes = g.live_nodes;
    s_live_edges = g.live_edges;
  }

let restore g s =
  if
    Array.length s.s_node_alive <> g.n
    || Array.length s.s_edge_alive <> Array.length g.edge_alive
  then invalid_arg "Graph.restore: snapshot from a different graph";
  Array.blit s.s_node_alive 0 g.node_alive 0 g.n;
  Array.blit s.s_edge_alive 0 g.edge_alive 0 (Array.length g.edge_alive);
  Array.blit s.s_deg 0 g.deg 0 g.n;
  g.live_nodes <- s.s_live_nodes;
  g.live_edges <- s.s_live_edges;
  (* every bit may have moved: drop the index, the next rank query
     rebuilds it *)
  g.live_index <- [||];
  (* BUMP, never assign the snapshotted counter back.  Restoring the old
     value made the counter collide: a rollback-then-diverge run could
     re-reach a previously seen version with *different* liveness, and
     every version-keyed consumer (the dirty-set reconciler, the
     incremental digest cache, the serve query cache) would silently
     trust stale data.  A restore is a mutation like any other — the
     counter stays strictly monotonic and every liveness configuration
     ever observable gets a globally fresh version. *)
  g.version <- g.version + 1

(* --- raw CSR access (engine internals) -------------------------------- *)

type csr = {
  csr_off : int array;
  csr_tgt : int array;
  csr_eid : int array;
  csr_node_alive : bool array;
  csr_edge_alive : bool array;
}

let csr g =
  {
    csr_off = g.off;
    csr_tgt = g.tgt;
    csr_eid = g.eid;
    csr_node_alive = g.node_alive;
    csr_edge_alive = g.edge_alive;
  }

(* --- streamed construction --------------------------------------------- *)

(* Build the CSR directly from a degree oracle and a neighbour stream,
   never materialising an edge list (the [create] path costs a hashtable
   entry plus a list cell per edge on top of the CSR; this path costs
   only the CSR itself plus one scratch int array).  Edge ids are
   assigned in ascending order of their canonical (u < v) endpoint's
   visit, which fills every row ascending by edge id: row [x] receives
   its lower-neighbour slots while those neighbours are visited (in
   ascending id order, since ids ascend with the visit) and then its own
   upper-neighbour slots with consecutively assigned ids. *)
let of_adjacency ~n ~degree ~iter =
  if n < 0 then invalid_arg "Graph.of_adjacency: negative size";
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let d = degree v in
    if d < 0 then invalid_arg "Graph.of_adjacency: negative degree";
    off.(v + 1) <- off.(v) + d
  done;
  let m2 = off.(n) in
  if m2 mod 2 <> 0 then
    invalid_arg "Graph.of_adjacency: odd total degree (asymmetric stream)";
  let m = m2 / 2 in
  let tgt = Array.make m2 0 in
  let eid = Array.make m2 0 in
  let edges_arr = Array.make m { id = 0; u = 0; v = 0 } in
  let pos = Array.sub off 0 (max n 1) in
  (* last-seen stamps catch duplicate neighbours in one node's list *)
  let seen = Array.make n (-1) in
  let next_id = ref 0 in
  for u = 0 to n - 1 do
    iter u (fun v ->
        if v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Graph.of_adjacency: bad neighbour %d" v);
        if v = u then invalid_arg "Graph.of_adjacency: self-loop";
        if seen.(v) = u then
          invalid_arg
            (Printf.sprintf "Graph.of_adjacency: duplicate edge (%d,%d)" u v);
        seen.(v) <- u;
        if v > u then begin
          if !next_id >= m then
            invalid_arg "Graph.of_adjacency: more neighbours than degree";
          let id = !next_id in
          incr next_id;
          edges_arr.(id) <- { id; u; v };
          tgt.(pos.(u)) <- v;
          eid.(pos.(u)) <- id;
          pos.(u) <- pos.(u) + 1;
          tgt.(pos.(v)) <- u;
          eid.(pos.(v)) <- id;
          pos.(v) <- pos.(v) + 1
        end)
  done;
  if !next_id <> m then
    invalid_arg "Graph.of_adjacency: degree oracle disagrees with stream";
  for v = 0 to n - 1 do
    if pos.(v) <> off.(v + 1) then
      invalid_arg
        (Printf.sprintf "Graph.of_adjacency: asymmetric stream at node %d" v)
  done;
  {
    n;
    edges_arr;
    node_alive = Array.make n true;
    edge_alive = Array.make m true;
    off;
    tgt;
    eid;
    deg = Array.init n (fun v -> off.(v + 1) - off.(v));
    live_nodes = n;
    live_edges = m;
    version = 0;
    live_index = [||];
  }

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," (node_count g) (edge_count g);
  iter_edges g (fun e -> Format.fprintf fmt "  %d -- %d@," e.u e.v);
  Format.fprintf fmt "@]"
