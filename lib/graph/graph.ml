type edge = { id : int; u : int; v : int }

(* Edge [e] joins [eu.(e) < ev.(e)]; its record is built only when a
   caller asks for one.  Adjacency is CSR (compressed sparse row): [off]
   has n+1 entries and slots [off.(v) .. off.(v+1)-1] of the flat
   [tgt]/[eid] arrays hold node v's neighbours and the ids of the
   connecting edges, ascending by edge id.  The arrays are built once
   and never change; faults only flip liveness bits, and every
   iteration filters on them.  [deg] caches the live degree (incident
   edges with the edge and both endpoints alive) and is maintained
   incrementally by the fault primitives, as is [cleared], the number
   of edge bits off.

   Every liveness flip is also logged in [flips], a ring keyed by the
   version the flip moved the graph to: a node [v] as [v], an edge [e]
   as [lnot e].  [flips_from] is the oldest version the log reaches
   back to: every version in [(flips_from, version]] has its entry, as
   long as it lies within the ring's length of [version].  A restore
   moves [flips_from] up to the new version, since it may flip any
   bit. *)
type t = {
  n : int;
  eu : int array; (* m lower endpoints, by edge id *)
  ev : int array; (* m upper endpoints, by edge id *)
  node_alive : bool array;
  edge_alive : bool array;
  off : int array; (* n + 1 CSR row offsets *)
  tgt : int array; (* 2m neighbour node per slot *)
  eid : int array; (* 2m edge id per slot *)
  deg : int array; (* live degree, maintained on deletion *)
  mutable live_nodes : int;
  mutable live_edges : int;
  mutable version : int; (* bumped on every effective deletion *)
  mutable cleared : int; (* edge bits off *)
  mutable flips : int array; (* the flip log; [||] until the first flip *)
  mutable flips_from : int;
  mutable live_index : int array;
      (* Fenwick (binary indexed) tree over node liveness, 1-indexed with
         n + 1 cells, backing [nth_live_node]; [||] until the first call
         builds it.  The fault primitives keep it current in O(log n);
         [copy] does not carry it and [restore] drops it. *)
}

let original_size g = g.n

let check_node g v =
  if v < 0 || v >= g.n then invalid_arg (Printf.sprintf "Graph: bad node %d" v)

(* --- construction ---------------------------------------------------------- *)

(* Every way of building a graph ends here: [eu]/[ev] hold distinct,
   validated edges by id, lower endpoint first.  Filling the rows in
   ascending edge-id order keeps each row ascending by edge id. *)
let of_canonical n eu ev =
  let m = Array.length eu in
  let deg = Array.make n 0 in
  for e = 0 to m - 1 do
    deg.(eu.(e)) <- deg.(eu.(e)) + 1;
    deg.(ev.(e)) <- deg.(ev.(e)) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  let pos = Array.sub off 0 (max n 1) in
  let tgt = Array.make (2 * m) 0 in
  let eid = Array.make (2 * m) 0 in
  for e = 0 to m - 1 do
    let u = eu.(e) and v = ev.(e) in
    tgt.(pos.(u)) <- v;
    eid.(pos.(u)) <- e;
    pos.(u) <- pos.(u) + 1;
    tgt.(pos.(v)) <- u;
    eid.(pos.(v)) <- e;
    pos.(v) <- pos.(v) + 1
  done;
  {
    n;
    eu;
    ev;
    node_alive = Array.make n true;
    edge_alive = Array.make m true;
    off;
    tgt;
    eid;
    deg;
    live_nodes = n;
    live_edges = m;
    version = 0;
    cleared = 0;
    flips = [||];
    flips_from = 0;
    live_index = [||];
  }

(* Validate edge [i] = (a, b) of a graph on [n] nodes and store it lower
   endpoint first. *)
let put who n us vs i a b =
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg (Printf.sprintf "%s: bad endpoint (%d,%d)" who a b);
  if a = b then invalid_arg (who ^ ": self-loop");
  if a < b then begin
    us.(i) <- a;
    vs.(i) <- b
  end
  else begin
    us.(i) <- b;
    vs.(i) <- a
  end

(* The edges of [us]/[vs] (validated, lower endpoint first) without
   repeats, each kept at its first occurrence, in their order.  A stable
   counting sort groups the edges by lower endpoint; within a group, a
   stamp per upper endpoint spots a repeat.  O(n + len) time, no
   hashing.  Marks repeats in [us]. *)
let dedup n us vs =
  let len = Array.length us in
  let next = Array.make (n + 1) 0 in
  for i = 0 to len - 1 do
    next.(us.(i) + 1) <- next.(us.(i) + 1) + 1
  done;
  for u = 0 to n - 1 do
    next.(u + 1) <- next.(u + 1) + next.(u)
  done;
  (* [next.(u)] is group u's next free slot, so once every edge is
     placed it is where group u ends and group u + 1 starts *)
  let ord = Array.make len 0 in
  for i = 0 to len - 1 do
    let u = us.(i) in
    ord.(next.(u)) <- i;
    next.(u) <- next.(u) + 1
  done;
  let stamp = Array.make n (-1) in
  let repeats = ref 0 and lo = ref 0 in
  for u = 0 to n - 1 do
    for k = !lo to next.(u) - 1 do
      let i = ord.(k) in
      if stamp.(vs.(i)) = u then begin
        us.(i) <- -1;
        incr repeats
      end
      else stamp.(vs.(i)) <- u
    done;
    lo := next.(u)
  done;
  if !repeats = 0 then (us, vs)
  else begin
    let eu = Array.make (len - !repeats) 0 and ev = Array.make (len - !repeats) 0 in
    let m = ref 0 in
    for i = 0 to len - 1 do
      if us.(i) >= 0 then begin
        eu.(!m) <- us.(i);
        ev.(!m) <- vs.(i);
        incr m
      end
    done;
    (eu, ev)
  end

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative size";
  let len = List.length edges in
  let us = Array.make len 0 and vs = Array.make len 0 in
  List.iteri (fun i (a, b) -> put "Graph.create" n us vs i a b) edges;
  let eu, ev = dedup n us vs in
  of_canonical n eu ev

let of_edges ~n us vs =
  if n < 0 then invalid_arg "Graph.of_edges: negative size";
  let len = Array.length us in
  if Array.length vs <> len then
    invalid_arg "Graph.of_edges: endpoint arrays differ in length";
  let cu = Array.make len 0 and cv = Array.make len 0 in
  for i = 0 to len - 1 do
    put "Graph.of_edges" n cu cv i us.(i) vs.(i)
  done;
  let eu, ev = dedup n cu cv in
  of_canonical n eu ev

(* Edge ids ascend with the visit of their lower endpoint, so the
   endpoint arrays come out in id order and [of_canonical] fills every
   row ascending by edge id.  The degree oracle sizes them; the rows the
   stream filled must then match it.  Symmetry is checked exactly in
   O(n + m) with one n-cell array, [last]:
   - while node [v] has not streamed, [last.(v)] heads a chain through
     the edges recorded towards it, linked through their [ev] cells (-1
     ends it), since each of those cells would only say [v]; a repeat
     of [v] in [u]'s list is that chain's head edge coming from [u];
   - when [v] streams, its chain is walked, every [ev] cell on it is
     set to [v], and the lower endpoints are marked in their own, now
     free, [last] cells ([-2v - 2]), flipping to [-2v - 3] as [v] lists
     them: a lower neighbour [v] lists must carry the mark, and [v]
     must list as many as were marked. *)
let of_adjacency ~n ~degree ~iter =
  if n < 0 then invalid_arg "Graph.of_adjacency: negative size";
  let want = Array.make n 0 in
  let total = ref 0 in
  for v = 0 to n - 1 do
    let d = degree v in
    if d < 0 then invalid_arg "Graph.of_adjacency: negative degree";
    want.(v) <- d;
    total := !total + d
  done;
  if !total mod 2 <> 0 then
    invalid_arg "Graph.of_adjacency: odd total degree (asymmetric stream)";
  let m = !total / 2 in
  let eu = Array.make m 0 and ev = Array.make m 0 in
  let last = Array.make n (-1) in
  let asymmetric u =
    invalid_arg
      (Printf.sprintf "Graph.of_adjacency: asymmetric stream at node %d" u)
  in
  let duplicate u v =
    invalid_arg
      (Printf.sprintf "Graph.of_adjacency: duplicate edge (%d,%d)" u v)
  in
  let next_id = ref 0 in
  (* a node that omitted a lower neighbour; reported after the row
     check, whose node order decides which node a short stream is
     blamed on *)
  let asym = ref (-1) in
  for u = 0 to n - 1 do
    let mark = (-2 * u) - 2 and listed = (-2 * u) - 3 in
    let marked = ref 0 in
    let e = ref last.(u) in
    while !e >= 0 do
      let next = ev.(!e) in
      ev.(!e) <- u;
      last.(eu.(!e)) <- mark;
      incr marked;
      e := next
    done;
    let lower = ref 0 in
    iter u (fun v ->
        if v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Graph.of_adjacency: bad neighbour %d" v);
        if v = u then invalid_arg "Graph.of_adjacency: self-loop";
        let h = last.(v) in
        if v < u then begin
          if h <> mark then if h = listed then duplicate u v else asymmetric u;
          last.(v) <- listed;
          incr lower
        end
        else begin
          if h >= 0 && eu.(h) = u then duplicate u v;
          if !next_id >= m then
            invalid_arg "Graph.of_adjacency: more neighbours than degree";
          eu.(!next_id) <- u;
          ev.(!next_id) <- h;
          last.(v) <- !next_id;
          incr next_id
        end);
    if !lower <> !marked && !asym < 0 then asym := u
  done;
  if !next_id <> m then
    invalid_arg "Graph.of_adjacency: degree oracle disagrees with stream";
  let g = of_canonical n eu ev in
  for v = 0 to n - 1 do
    if g.deg.(v) <> want.(v) then asymmetric v
  done;
  if !asym >= 0 then asymmetric !asym;
  g

(* Neither the liveness index nor the flip log is copied: copies back
   snapshots and views that never ask for a node by rank, and a copy
   that is mutated builds its own.  A copy's log starts at its
   version. *)
let copy g =
  {
    g with
    node_alive = Array.copy g.node_alive;
    edge_alive = Array.copy g.edge_alive;
    deg = Array.copy g.deg;
    flips = [||];
    flips_from = g.version;
    live_index = [||];
  }

let node_count g = g.live_nodes
let edge_count g = g.live_edges

let is_live_node g v = v >= 0 && v < g.n && g.node_alive.(v)

let is_live_edge g e =
  e >= 0 && e < Array.length g.eu && g.edge_alive.(e)

let record g id = { id; u = g.eu.(id); v = g.ev.(id) }

let edge g id =
  if id < 0 || id >= Array.length g.eu then
    invalid_arg (Printf.sprintf "Graph.edge: bad id %d" id);
  record g id

(* [f id w] for each live edge [id] from live [v] to live [w]. *)
let iter_live_incident g v f =
  check_node g v;
  if g.node_alive.(v) then
    for i = g.off.(v) to g.off.(v + 1) - 1 do
      let id = g.eid.(i) in
      if g.edge_alive.(id) then begin
        let w = g.tgt.(i) in
        if g.node_alive.(w) then f id w
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

(* The id of the live edge joining live [a] and [b], or -1. *)
let find_edge g a b =
  let found = ref (-1) in
  if is_live_node g a && is_live_node g b then
    for i = g.off.(a) to g.off.(a + 1) - 1 do
      if g.tgt.(i) = b && g.edge_alive.(g.eid.(i)) then found := g.eid.(i)
    done;
  !found

let edge_between g a b =
  let id = find_edge g a b in
  if id < 0 then None else Some (record g id)

let mem_edge g a b = find_edge g a b >= 0

let degree g v = if is_live_node g v then g.deg.(v) else 0

let nodes g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if g.node_alive.(v) then acc := v :: !acc
  done;
  !acc

let version g = g.version
let cleared_edges g = g.cleared

(* --- the flip log -------------------------------------------------------- *)

(* The log's capacity follows the engine's dirty worklist ([max 64
   (n/16)]), rounded up to a power of two so a version finds its cell
   with a mask: a reader further behind than that many flips is told
   that everything may have changed. *)
let log_capacity n =
  let c = ref 64 in
  while !c < n / 16 do
    c := 2 * !c
  done;
  !c

(* Bump the version for a flip of [id] and log it. *)
let flip g id =
  g.version <- g.version + 1;
  if Array.length g.flips = 0 then g.flips <- Array.make (log_capacity g.n) 0;
  g.flips.(g.version land (Array.length g.flips - 1)) <- id

let iter_flips g ~since ~node ~edge =
  since = g.version
  || since >= g.flips_from
     && since < g.version
     && g.version - since <= Array.length g.flips
     &&
     let mask = Array.length g.flips - 1 in
     for e = since + 1 to g.version do
       let id = g.flips.(e land mask) in
       if id >= 0 then node id else edge (lnot id)
     done;
     true

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

let live_edge_endpoints_live g id =
  g.edge_alive.(id) && g.node_alive.(g.eu.(id)) && g.node_alive.(g.ev.(id))

let edges g =
  let acc = ref [] in
  for id = Array.length g.eu - 1 downto 0 do
    if live_edge_endpoints_live g id then acc := record g id :: !acc
  done;
  !acc

let neighbours g v =
  let acc = ref [] in
  iter_neighbours g v (fun w -> acc := w :: !acc);
  List.rev !acc

let iter_nodes g f =
  for v = 0 to g.n - 1 do
    if g.node_alive.(v) then f v
  done

let iter_edges g f =
  for id = 0 to Array.length g.eu - 1 do
    if live_edge_endpoints_live g id then f (record g id)
  done

let fold_neighbours g v ~init ~f =
  let acc = ref init in
  iter_neighbours g v (fun w -> acc := f !acc w);
  !acc

let incident g v =
  let acc = ref [] in
  iter_live_incident g v (fun id _ -> acc := record g id :: !acc);
  List.rev !acc

let remove_edge g id =
  if id < 0 || id >= Array.length g.eu then
    invalid_arg (Printf.sprintf "Graph.remove_edge: bad id %d" id);
  (* The version must move whenever the liveness *bit* flips, not only
     when the edge was observably live: an edge killed while an endpoint
     is down changes what a later [revive_node] brings back, and
     version-keyed caches must see that. *)
  if g.edge_alive.(id) then begin
    if live_edge_endpoints_live g id then begin
      let u = g.eu.(id) and v = g.ev.(id) in
      g.live_edges <- g.live_edges - 1;
      g.deg.(u) <- g.deg.(u) - 1;
      g.deg.(v) <- g.deg.(v) - 1
    end;
    g.edge_alive.(id) <- false;
    g.cleared <- g.cleared + 1;
    flip g (lnot id)
  end

let remove_edge_between g a b =
  let id = find_edge g a b in
  if id >= 0 then remove_edge g id

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
    flip g v
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
    flip g v
  end

(* --- liveness snapshots and refreshed copies ----------------------------- *)

(* A snapshot is a copy: the liveness bits, cached degrees and counts,
   with the CSR shared. *)
type snapshot = t

let snapshot = copy

(* Everything liveness-related but the version and the caches. *)
let blit_liveness ~src ~dst =
  Array.blit src.node_alive 0 dst.node_alive 0 src.n;
  Array.blit src.edge_alive 0 dst.edge_alive 0 (Array.length src.edge_alive);
  Array.blit src.deg 0 dst.deg 0 src.n;
  dst.live_nodes <- src.live_nodes;
  dst.live_edges <- src.live_edges;
  dst.cleared <- src.cleared

let restore g s =
  if
    Array.length s.node_alive <> g.n
    || Array.length s.edge_alive <> Array.length g.edge_alive
  then invalid_arg "Graph.restore: snapshot from a different graph";
  blit_liveness ~src:s ~dst:g;
  (* every bit may have moved: drop the index, the next rank query
     rebuilds it, and cut the flip log off here *)
  g.live_index <- [||];
  (* BUMP, never assign the snapshotted counter back.  Restoring the old
     value made the counter collide: a rollback-then-diverge run could
     re-reach a previously seen version with *different* liveness, and
     every version-keyed consumer (the dirty-set reconciler, the
     incremental digest cache, the serve query cache) would silently
     trust stale data.  A restore is a mutation like any other — the
     counter stays strictly monotonic and every liveness configuration
     ever observable gets a globally fresh version. *)
  g.version <- g.version + 1;
  g.flips_from <- g.version

(* A flipped node moves its own degree and those of its row's ends; a
   flipped edge those of its endpoints.  Copying the source's values,
   not applying deltas, makes repeated ids harmless. *)
let refresh_node c g v =
  c.node_alive.(v) <- g.node_alive.(v);
  c.deg.(v) <- g.deg.(v);
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    let w = g.tgt.(i) in
    c.deg.(w) <- g.deg.(w)
  done

let refresh_edge c g e =
  let u = g.eu.(e) and v = g.ev.(e) in
  c.edge_alive.(e) <- g.edge_alive.(e);
  c.deg.(u) <- g.deg.(u);
  c.deg.(v) <- g.deg.(v)

let refresh c ~from:g =
  if c.off != g.off then invalid_arg "Graph.refresh: not a copy of this graph";
  if c.version <> g.version then begin
    if
      not
        (iter_flips g ~since:c.version ~node:(refresh_node c g)
           ~edge:(refresh_edge c g))
    then blit_liveness ~src:g ~dst:c;
    c.live_nodes <- g.live_nodes;
    c.live_edges <- g.live_edges;
    c.cleared <- g.cleared;
    c.version <- g.version;
    (* the copy's own log cannot tell what moved *)
    c.flips_from <- c.version;
    c.live_index <- [||]
  end

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
