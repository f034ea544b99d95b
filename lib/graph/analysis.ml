(* The breadth-first kernels walk a frozen adjacency: the live edges
   between live nodes only, rows in CSR slot order, so no loop tests
   liveness per neighbour and a dead node's row is empty.  The low-link
   walk needs edge ids and walks the graph's CSR arrays ({!Graph.csr})
   directly; there a slot is live iff its edge bit and its target's
   node bit are both set, the filter [Graph.iter_neighbours] applies.
   Either way a row lists its slots in ascending edge id, the order
   [Graph.incident] gives.  No closure runs per neighbour and no edge
   record or queue cell is built: the working state is flat arrays,
   which on graphs of a few thousand nodes or more the runtime
   allocates outside the minor heap. *)

(* --- frozen adjacency ---------------------------------------------------- *)

type adjacency = {
  a_off : int array;  (* n + 1 row offsets into [a_tgt] *)
  a_tgt : int array;  (* live neighbours, row by row, then unused cells *)
  a_live : Bytes.t;  (* '\001' per live node *)
  a_nodes : int;  (* live nodes *)
}

let live a v =
  v >= 0 && v < Bytes.length a.a_live && Bytes.get a.a_live v <> '\000'

let freeze g =
  let c = Graph.csr g in
  let n = Graph.original_size g in
  let node_alive = c.csr_node_alive in
  let a_live = Bytes.make n '\000' in
  for v = 0 to n - 1 do
    if node_alive.(v) then Bytes.set a_live v '\001'
  done;
  let a_nodes = Graph.node_count g in
  let slots = Array.length c.csr_tgt in
  if a_nodes = n && 2 * Graph.edge_count g = slots then
    (* Nothing is dead: the graph's own arrays, which never change after
       [Graph.create], so sharing them still freezes the adjacency. *)
    { a_off = c.csr_off; a_tgt = c.csr_tgt; a_live; a_nodes }
  else begin
    let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
    let edge_alive = c.csr_edge_alive in
    let a_off = Array.make (n + 1) 0 and a_tgt = Array.make slots 0 in
    let k = ref 0 in
    for v = 0 to n - 1 do
      if node_alive.(v) then
        for s = off.(v) to off.(v + 1) - 1 do
          let w = tgt.(s) in
          if edge_alive.(eid.(s)) && node_alive.(w) then begin
            a_tgt.(!k) <- w;
            incr k
          end
        done;
      a_off.(v + 1) <- !k
    done;
    { a_off; a_tgt; a_live; a_nodes }
  end

(* --- breadth-first search ------------------------------------------------ *)

(* Breadth-first search through the FIFO [q], whose cells [head .. tail
   - 1] hold the nodes queued but not yet expanded: every node still
   [unset] in [a] that the adjacency reaches from them is queued with
   [a.(w) = a.(v) + step], [v] being the node that reached it.  Returns
   the new tail.  A node is queued at most once, so an n-cell queue
   never fills, and searches over disjoint components can share one
   queue, each starting where the last ended. *)
let bfs adj q ~head ~tail a ~unset ~step =
  let off = adj.a_off and tgt = adj.a_tgt in
  let head = ref head and tail = ref tail in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    let x = a.(v) + step in
    for s = off.(v) to off.(v + 1) - 1 do
      let w = tgt.(s) in
      if a.(w) = unset then begin
        a.(w) <- x;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* Queue every live source not yet queued at distance 0; returns the
   tail. *)
let seed adj dist q sources =
  let tail = ref 0 in
  List.iter
    (fun s ->
      if live adj s && dist.(s) = max_int then begin
        dist.(s) <- 0;
        q.(!tail) <- s;
        incr tail
      end)
    sources;
  !tail

(* The indices [i < len] satisfying [p], ascending. *)
let ascending len p =
  let acc = ref [] in
  for i = len - 1 downto 0 do
    if p i then acc := i :: !acc
  done;
  !acc

let distances g ~sources =
  let adj = freeze g in
  let n = Bytes.length adj.a_live in
  let dist = Array.make n max_int in
  let q = Array.make n 0 in
  ignore
    (bfs adj q ~head:0 ~tail:(seed adj dist q sources) dist ~unset:max_int
       ~step:1);
  dist

(* One BFS from the live node [s]: an array holding 0 on its component
   and -1 elsewhere, and the component's size. *)
let reach adj s =
  let n = Bytes.length adj.a_live in
  let mark = Array.make n (-1) in
  let q = Array.make n 0 in
  mark.(s) <- 0;
  q.(0) <- s;
  (mark, bfs adj q ~head:0 ~tail:1 mark ~unset:(-1) ~step:0)

let frozen_labels adj =
  let n = Bytes.length adj.a_live in
  let label = Array.make n (-1) in
  let q = Array.make n 0 in
  let k = ref 0 and tail = ref 0 in
  (* scanning ids upwards starts each component at its smallest member;
     the components' searches share the queue *)
  for v = 0 to n - 1 do
    if label.(v) < 0 && live adj v then begin
      label.(v) <- !k;
      q.(!tail) <- v;
      tail := bfs adj q ~head:!tail ~tail:(!tail + 1) label ~unset:(-1) ~step:0;
      incr k
    end
  done;
  (label, !k)

let component_labels g = frozen_labels (freeze g)

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
  let mark, _ = reach (freeze g) s in
  ascending (Array.length mark) (fun v -> mark.(v) = 0)

let connected adj =
  adj.a_nodes = 0
  ||
  let s = ref 0 in
  while not (live adj !s) do
    incr s
  done;
  snd (reach adj !s) = adj.a_nodes

let is_connected g = connected (freeze g)

(* The eccentricity of [v] through idle working arrays ([dist] all
   [max_int]), which it leaves idle again: the last node a BFS queues is
   a farthest one, and only the queued cells are reset. *)
let ecc adj dist q v =
  let tail =
    bfs adj q ~head:0 ~tail:(seed adj dist q [ v ]) dist ~unset:max_int ~step:1
  in
  let e = if tail = 0 then 0 else dist.(q.(tail - 1)) in
  for i = 0 to tail - 1 do
    dist.(q.(i)) <- max_int
  done;
  e

let eccentricity g v =
  let adj = freeze g in
  let n = Bytes.length adj.a_live in
  ecc adj (Array.make n max_int) (Array.make n 0) v

let diameter g =
  if Graph.node_count g = 0 then invalid_arg "Analysis.diameter: empty graph";
  let adj = freeze g in
  if not (connected adj) then
    invalid_arg "Analysis.diameter: disconnected graph";
  let n = Bytes.length adj.a_live in
  let dist = Array.make n max_int and q = Array.make n 0 in
  let d = ref 0 in
  for v = 0 to n - 1 do
    if live adj v then d := max !d (ecc adj dist q v)
  done;
  !d

(* BFS levels from each component's smallest node; the colour is the
   level's parity, and the colouring is proper iff no live edge joins
   two nodes of one parity.  A dead node's row is empty, so the edge
   scan needs no liveness test. *)
let two_colouring g =
  let adj = freeze g in
  let n = Bytes.length adj.a_live in
  let colour = Array.make n max_int in
  let q = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if colour.(v) = max_int && live adj v then begin
      colour.(v) <- 0;
      q.(!tail) <- v;
      tail :=
        bfs adj q ~head:!tail ~tail:(!tail + 1) colour ~unset:max_int ~step:1
    end
  done;
  for v = 0 to n - 1 do
    colour.(v) <- (if colour.(v) = max_int then 0 else colour.(v) land 1)
  done;
  let ok = ref true and v = ref 0 in
  while !ok && !v < n do
    let u = !v in
    for s = adj.a_off.(u) to adj.a_off.(u + 1) - 1 do
      if colour.(adj.a_tgt.(s)) = colour.(u) then ok := false
    done;
    incr v
  done;
  if !ok then Some colour else None

let is_bipartite g = two_colouring g <> None

(* --- searches that stop at their targets --------------------------------- *)

type scratch = { s_dist : int array; s_queue : int array; s_want : Bytes.t }

let scratch adj =
  let n = Bytes.length adj.a_live in
  {
    s_dist = Array.make n max_int;
    s_queue = Array.make n 0;
    s_want = Bytes.make n '\000';
  }

(* [bfs] from distance 0 with the FIFO starting at cell 0, stopping once
   [left] nodes marked in [want] are settled: the check costs one byte
   per queued node, whatever the number of targets. *)
let bfs_until adj q ~tail dist want ~left =
  let off = adj.a_off and tgt = adj.a_tgt in
  let head = ref 0 and tail = ref tail and left = ref left in
  while !left > 0 && !head < !tail do
    let v = q.(!head) in
    incr head;
    let x = dist.(v) + 1 in
    for s = off.(v) to off.(v + 1) - 1 do
      let w = tgt.(s) in
      if dist.(w) = max_int then begin
        dist.(w) <- x;
        q.(!tail) <- w;
        incr tail;
        if Bytes.get want w <> '\000' then decr left
      end
    done
  done;
  !tail

let target_distances adj sc ~sources ~targets =
  let n = Bytes.length adj.a_live in
  let dist = sc.s_dist and q = sc.s_queue and want = sc.s_want in
  let tail = seed adj dist q sources in
  (* mark each live target not already settled as a source, once *)
  let left = ref 0 in
  List.iter
    (fun t ->
      if live adj t && dist.(t) = max_int && Bytes.get want t = '\000'
      then begin
        Bytes.set want t '\001';
        incr left
      end)
    targets;
  let tail =
    if !left > 0 then bfs_until adj q ~tail dist want ~left:!left else tail
  in
  let answer =
    List.map (fun t -> if t >= 0 && t < n then dist.(t) else max_int) targets
  in
  (* back to idle: every cell written is a queued node or a target *)
  for i = 0 to tail - 1 do
    dist.(q.(i)) <- max_int
  done;
  List.iter (fun t -> if t >= 0 && t < n then Bytes.set want t '\000') targets;
  answer

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
