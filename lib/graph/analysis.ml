(* The kernels walk the graph's CSR arrays ({!Graph.csr}) directly.  A
   slot is live iff its edge bit and its target's node bit are both set
   — the filter [Graph.iter_neighbours] applies — and a row lists its
   slots in ascending edge id, the order [Graph.incident] gives.  No
   closure runs per neighbour and no edge record or queue cell is
   built: the working state is flat arrays, which on graphs of a few
   thousand nodes or more the runtime allocates outside the minor
   heap. *)

(* --- breadth-first search ------------------------------------------------ *)

(* Breadth-first search through the FIFO [q], whose cells [head .. tail
   - 1] hold the nodes queued but not yet expanded: every live node
   still [unset] in [a] that live edges reach from them is queued with
   [a.(w) = a.(v) + step], [v] being the node that reached it.  Returns
   the new tail.  A node is queued at most once, so an n-cell queue
   never fills, and searches over disjoint components can share one
   queue, each starting where the last ended. *)
let bfs (c : Graph.csr) q ~head ~tail a ~unset ~step =
  let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
  let node_alive = c.csr_node_alive and edge_alive = c.csr_edge_alive in
  let head = ref head and tail = ref tail in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    let x = a.(v) + step in
    for s = off.(v) to off.(v + 1) - 1 do
      let w = tgt.(s) in
      if a.(w) = unset && edge_alive.(eid.(s)) && node_alive.(w) then begin
        a.(w) <- x;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* The indices [i < len] satisfying [p], ascending. *)
let ascending len p =
  let acc = ref [] in
  for i = len - 1 downto 0 do
    if p i then acc := i :: !acc
  done;
  !acc

let distances g ~sources =
  let n = Graph.original_size g in
  let dist = Array.make n max_int in
  let q = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if Graph.is_live_node g s && dist.(s) = max_int then begin
        dist.(s) <- 0;
        q.(!tail) <- s;
        incr tail
      end)
    sources;
  ignore (bfs (Graph.csr g) q ~head:0 ~tail:!tail dist ~unset:max_int ~step:1);
  dist

(* One BFS from the live node [s]: an array holding 0 on its component
   and -1 elsewhere, and the component's size. *)
let reach g s =
  let n = Graph.original_size g in
  let mark = Array.make n (-1) in
  let q = Array.make n 0 in
  mark.(s) <- 0;
  q.(0) <- s;
  (mark, bfs (Graph.csr g) q ~head:0 ~tail:1 mark ~unset:(-1) ~step:0)

let component_labels g =
  let n = Graph.original_size g in
  let c = Graph.csr g in
  let label = Array.make n (-1) in
  let q = Array.make n 0 in
  let k = ref 0 and tail = ref 0 in
  (* scanning ids upwards starts each component at its smallest member;
     the components' searches share the queue *)
  for v = 0 to n - 1 do
    if label.(v) < 0 && c.csr_node_alive.(v) then begin
      label.(v) <- !k;
      q.(!tail) <- v;
      tail := bfs c q ~head:!tail ~tail:(!tail + 1) label ~unset:(-1) ~step:0;
      incr k
    end
  done;
  (label, !k)

let components g =
  let label, k = component_labels g in
  let comps = Array.make k [] in
  for v = Array.length label - 1 downto 0 do
    let l = label.(v) in
    if l >= 0 then comps.(l) <- v :: comps.(l)
  done;
  Array.to_list comps

let component_of g s =
  if not (Graph.is_live_node g s) then
    invalid_arg "Analysis.component_of: dead node";
  let mark, _ = reach g s in
  ascending (Array.length mark) (fun v -> mark.(v) = 0)

let is_connected g =
  Graph.node_count g = 0
  ||
  let alive = (Graph.csr g).csr_node_alive in
  let s = ref 0 in
  while not alive.(!s) do
    incr s
  done;
  snd (reach g !s) = Graph.node_count g

let eccentricity g v =
  let dist = distances g ~sources:[ v ] in
  Array.fold_left (fun m d -> if d < max_int then max m d else m) 0 dist

let diameter g =
  if Graph.node_count g = 0 then invalid_arg "Analysis.diameter: empty graph";
  if not (is_connected g) then
    invalid_arg "Analysis.diameter: disconnected graph";
  List.fold_left (fun m v -> max m (eccentricity g v)) 0 (Graph.nodes g)

(* BFS levels from each component's smallest node; the colour is the
   level's parity, and the colouring is proper iff no live edge joins
   two nodes of one parity. *)
let two_colouring g =
  let n = Graph.original_size g in
  let c = Graph.csr g in
  let colour = Array.make n max_int in
  let q = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if colour.(v) = max_int && c.csr_node_alive.(v) then begin
      colour.(v) <- 0;
      q.(!tail) <- v;
      tail := bfs c q ~head:!tail ~tail:(!tail + 1) colour ~unset:max_int ~step:1
    end
  done;
  for v = 0 to n - 1 do
    colour.(v) <- (if colour.(v) = max_int then 0 else colour.(v) land 1)
  done;
  let ok = ref true and v = ref 0 in
  while !ok && !v < n do
    let u = !v in
    if c.csr_node_alive.(u) then
      for s = c.csr_off.(u) to c.csr_off.(u + 1) - 1 do
        let w = c.csr_tgt.(s) in
        if
          colour.(w) = colour.(u)
          && c.csr_edge_alive.(c.csr_eid.(s))
          && c.csr_node_alive.(w)
        then ok := false
      done;
    incr v
  done;
  if !ok then Some colour else None

let is_bipartite g = two_colouring g <> None

(* --- Tarjan low-link ---------------------------------------------------- *)

(* Iterative Tarjan over the live graph, one DFS tree per unvisited live
   node in ascending id order.  A frame is (node, parent edge id, next
   CSR slot), kept in three int arrays indexed by stack depth, and a
   frame walks its row's slots in order, so the DFS forest is the one a
   walk over [Graph.incident] lists builds.  The results are marks: per
   edge [tree] or [bridge] (a bridge is a tree edge), per node whether
   it is a cut vertex.  Low-links fold into the parent when a frame
   pops. *)
let tree = '\001'
let bridge = '\002'

type lowlink = { edge_mark : Bytes.t; cut : Bytes.t }

let lowlink g =
  let c = Graph.csr g in
  let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
  let node_alive = c.csr_node_alive and edge_alive = c.csr_edge_alive in
  let n = Graph.original_size g in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let f_node = Array.make n 0
  and f_edge = Array.make n 0
  and f_slot = Array.make n 0 in
  let edge_mark = Bytes.make (Array.length edge_alive) '\000' in
  let cut = Bytes.make n '\000' in
  let counter = ref 0 in
  for root = 0 to n - 1 do
    if node_alive.(root) && disc.(root) < 0 then begin
      disc.(root) <- !counter;
      low.(root) <- !counter;
      incr counter;
      f_node.(0) <- root;
      f_edge.(0) <- -1;
      f_slot.(0) <- off.(root);
      let depth = ref 1 and root_children = ref 0 in
      while !depth > 0 do
        let top = !depth - 1 in
        let v = f_node.(top) and s = f_slot.(top) in
        if s < off.(v + 1) then begin
          f_slot.(top) <- s + 1;
          let e = eid.(s) and w = tgt.(s) in
          if edge_alive.(e) && node_alive.(w) && e <> f_edge.(top) then
            if disc.(w) < 0 then begin
              disc.(w) <- !counter;
              low.(w) <- !counter;
              incr counter;
              Bytes.set edge_mark e tree;
              f_node.(!depth) <- w;
              f_edge.(!depth) <- e;
              f_slot.(!depth) <- off.(w);
              incr depth
            end
            else if disc.(w) < low.(v) then low.(v) <- disc.(w)
        end
        else begin
          depth := top;
          if top > 0 then begin
            let u = f_node.(top - 1) in
            if low.(v) < low.(u) then low.(u) <- low.(v);
            if low.(v) > disc.(u) then Bytes.set edge_mark f_edge.(top) bridge;
            if u <> root && low.(v) >= disc.(u) then Bytes.set cut u '\001';
            if u = root then incr root_children
          end
        end
      done;
      if !root_children >= 2 then Bytes.set cut root '\001'
    end
  done;
  { edge_mark; cut }

let bridges g =
  let { edge_mark; _ } = lowlink g in
  ascending (Bytes.length edge_mark) (fun e -> Bytes.get edge_mark e = bridge)

let articulation_points g =
  let { cut; _ } = lowlink g in
  ascending (Bytes.length cut) (fun v -> Bytes.get cut v <> '\000')

let spanning_tree_edges g =
  let { edge_mark; _ } = lowlink g in
  ascending (Bytes.length edge_mark) (fun e -> Bytes.get edge_mark e <> '\000')
