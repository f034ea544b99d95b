(* The breadth-first kernels walk a frozen adjacency, rows in CSR slot
   order, so no loop tests liveness per neighbour: either the live
   edges between live nodes only, or, when no edge bit is off, the
   graph's own rows, whose dead nodes each search marks settled before
   it starts.  The low-link walk and the landmark-guided search walk
   the graph's CSR arrays ({!Graph.csr}) directly; there a slot is live
   iff its edge bit and its target's node bit are both set, the filter
   [Graph.iter_neighbours] applies.  Either way a row lists its slots
   in ascending edge id, the order [Graph.incident] gives.  No closure
   runs per neighbour and no edge record or queue cell is built: the
   working state is flat arrays, which on graphs of a few thousand
   nodes or more the runtime allocates outside the minor heap. *)

(* --- frozen adjacency ---------------------------------------------------- *)

type adjacency = {
  a_off : int array;  (* n + 1 row offsets into [a_tgt] *)
  a_tgt : int array;  (* neighbours, row by row, then unused cells *)
  a_live : Bytes.t;  (* '\001' per live node *)
  a_nodes : int;  (* live nodes *)
  a_dead : int array;
      (* the dead nodes the rows still list, ascending: when the rows
         are the graph's own, its dead nodes; otherwise none *)
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
  if Graph.cleared_edges g = 0 then begin
    (* Every edge bit is set, so a slot is live iff its target is: the
       graph's own rows, which never change after [Graph.create], hold
       the live adjacency plus the slots of the dead nodes listed in
       [a_dead].  Sharing them still freezes the adjacency. *)
    let a_dead = Array.make (n - a_nodes) 0 in
    let k = ref 0 in
    for v = 0 to n - 1 do
      if not node_alive.(v) then begin
        a_dead.(!k) <- v;
        incr k
      end
    done;
    { a_off = c.csr_off; a_tgt = c.csr_tgt; a_live; a_nodes; a_dead }
  end
  else begin
    (* A dead edge bit: copy out the live slots. *)
    let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
    let edge_alive = c.csr_edge_alive in
    let slots = Array.length tgt in
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
    { a_off; a_tgt; a_live; a_nodes; a_dead = [||] }
  end

(* A search enters a dead node the rows list only if its cell is unset,
   so each kernel first writes a value other than its unset one there:
   [settled] into arrays unset at [max_int], [max_int] into arrays unset
   at -1.  Kernels that return the array put the documented value back
   afterwards. *)
let settled = -1

let mark_dead adj a x =
  let d = adj.a_dead in
  for i = 0 to Array.length d - 1 do
    a.(d.(i)) <- x
  done

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
  mark_dead adj dist settled;
  ignore
    (bfs adj q ~head:0 ~tail:(seed adj dist q sources) dist ~unset:max_int
       ~step:1);
  mark_dead adj dist max_int;
  dist

(* One BFS from the live node [s]: an array holding 0 on its component
   and -1 or [max_int] elsewhere, and the component's size. *)
let reach adj s =
  let n = Bytes.length adj.a_live in
  let mark = Array.make n (-1) in
  let q = Array.make n 0 in
  mark_dead adj mark max_int;
  mark.(s) <- 0;
  q.(0) <- s;
  (mark, bfs adj q ~head:0 ~tail:1 mark ~unset:(-1) ~step:0)

let relabel adj ~labels:label ~queue:q =
  let n = Bytes.length adj.a_live in
  if Array.length label < n || Array.length q < n then
    invalid_arg "Analysis.relabel: arrays shorter than the graph";
  Array.fill label 0 n (-1);
  mark_dead adj label max_int;
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
  mark_dead adj label (-1);
  !k

let frozen_labels adj =
  let n = Bytes.length adj.a_live in
  let labels = Array.make n (-1) in
  let k = relabel adj ~labels ~queue:(Array.make n 0) in
  (labels, k)

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

(* The eccentricity of [v] through idle working arrays ([dist]
   [max_int] but at the dead ids the rows list), which it leaves idle
   again: the last node a BFS queues is a farthest one, and only the
   queued cells are reset. *)
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
  let dist = Array.make n max_int in
  mark_dead adj dist settled;
  ecc adj dist (Array.make n 0) v

let diameter g =
  if Graph.node_count g = 0 then invalid_arg "Analysis.diameter: empty graph";
  let adj = freeze g in
  if not (connected adj) then
    invalid_arg "Analysis.diameter: disconnected graph";
  let n = Bytes.length adj.a_live in
  let dist = Array.make n max_int and q = Array.make n 0 in
  mark_dead adj dist settled;
  let d = ref 0 in
  for v = 0 to n - 1 do
    if live adj v then d := max !d (ecc adj dist q v)
  done;
  !d

(* BFS levels from each component's smallest node; the colour is the
   level's parity, and the colouring is proper iff no live edge joins
   two nodes of one parity.  Shared rows still list the dead nodes'
   slots, so the edge scan tests liveness when it finds two equal
   colours. *)
let two_colouring g =
  let adj = freeze g in
  let n = Bytes.length adj.a_live in
  let colour = Array.make n max_int in
  let q = Array.make n 0 in
  mark_dead adj colour settled;
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
  mark_dead adj colour 0;
  let ok = ref true and v = ref 0 in
  while !ok && !v < n do
    let u = !v in
    for s = adj.a_off.(u) to adj.a_off.(u + 1) - 1 do
      let w = adj.a_tgt.(s) in
      if colour.(w) = colour.(u) && live adj w && live adj u then ok := false
    done;
    incr v
  done;
  if !ok then Some colour else None

let is_bipartite g = two_colouring g <> None

(* --- searches that stop at their targets --------------------------------- *)

(* The working cells of both target searches.  [s_dist] holds the
   breadth-first distances or the guided search's path lengths, and
   [settled] at the graph's dead nodes for the scratch's whole life, so
   neither search enters one; [s_queue] is the FIFO or the guided
   search's list of touched nodes; [s_mark] holds the targets or the
   closed nodes; [s_open] the guided search's three LIFO buckets,
   interleaved (entry [i] of bucket [b] at [3i + b]), [s_top] their
   heights. *)
type scratch = {
  s_dist : int array;
  s_queue : int array;
  s_mark : Bytes.t;
  mutable s_open : int array;
  s_top : int array;
  mutable s_settled : int;  (* nodes the last guided search settled *)
}

let scratch g =
  let n = Graph.original_size g in
  let alive = (Graph.csr g).csr_node_alive in
  let dist = Array.make n max_int in
  for v = 0 to n - 1 do
    if not alive.(v) then dist.(v) <- settled
  done;
  {
    s_dist = dist;
    s_queue = Array.make n 0;
    s_mark = Bytes.make n '\000';
    s_open = Array.make 192 0;
    s_top = Array.make 3 0;
    s_settled = 0;
  }

let refresh_scratch sc g v =
  sc.s_dist.(v) <- (if Graph.is_live_node g v then max_int else settled)

let last_settled sc = sc.s_settled

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
  let dist = sc.s_dist and q = sc.s_queue and want = sc.s_mark in
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
  let answer = List.map (fun t -> if live adj t then dist.(t) else max_int) targets in
  (* back to idle: every cell written is a queued node or a target *)
  for i = 0 to tail - 1 do
    dist.(q.(i)) <- max_int
  done;
  List.iter (fun t -> if t >= 0 && t < n then Bytes.set want t '\000') targets;
  answer

(* --- landmark lower bounds ----------------------------------------------- *)

(* The structure's distances from [landmark_count] landmarks, packed
   into one int per node, [field_bits] bits per landmark: landmark [j]'s
   distance at bits [15j .. 15j + 14].  [unreached] marks a landmark in
   another component of the structure; longer distances are clamped to
   [far], which keeps every bound a lower bound, since clamping moves
   no two values further apart.  (Four fields take 60 bits: the table
   assumes 63-bit ints.) *)
let landmark_count = 4
let field_bits = 15
let unreached = 0x7FFF
let far = 0x7FFE

let field d j = (d lsr (field_bits * j)) land unreached

type landmarks = {
  l_off : int array;  (* the rows the table was built from *)
  l_tgt : int array;
  l_dist : int array;
}

(* [min], [max] and [abs] without branches: the selection scans every
   node and the search evaluates the bound for every node it reaches,
   and the comparisons' outcomes follow no pattern a branch predictor
   learns (with branches a settled node cost 1.4-2 times as much on the
   317 x 317 grid).  Exact for operands below 2^61 in magnitude. *)
let imin a b =
  let d = a - b in
  b + (d land (d asr 62))

let imax a b =
  let d = a - b in
  a - (d land (d asr 62))

let iabs x =
  let m = x asr 62 in
  (x lxor m) - m

(* One breadth-first search of the structure, liveness ignored, from
   [l] into field [j] of [tbl], which is [unreached] at every node; [q]
   is an n-cell FIFO.  Level by level, so a node's distance is the
   level's, not read back from its parent's field. *)
let landmark_bfs off tgt tbl q j l =
  let shift = field_bits * j in
  let mask = unreached lsl shift in
  tbl.(l) <- tbl.(l) land lnot mask;
  q.(0) <- l;
  let head = ref 0 and tail = ref 1 and level = ref 0 in
  while !head < !tail do
    let stop = !tail in
    incr level;
    let x = min far !level lsl shift in
    while !head < stop do
      let v = q.(!head) in
      incr head;
      for s = off.(v) to off.(v + 1) - 1 do
        let w = tgt.(s) in
        let d = tbl.(w) in
        if d land mask = mask then begin
          tbl.(w) <- d land lnot mask lor x;
          q.(!tail) <- w;
          incr tail
        end
      done
    done
  done

(* Farthest-point selection: the node with a neighbour whose least
   field is largest, ties going to the larger sum of the fields, then
   to the smaller id; [default] if no node has a neighbour.  A landmark
   not yet chosen, or in another component, leaves [unreached] in the
   field, larger than any distance: the same for every node in the
   first case, and in the second a node no chosen landmark reaches
   counts as infinitely far. *)
let farthest off tbl ~default =
  let best = ref default and best_key = ref (-1) in
  for v = 0 to Array.length tbl - 1 do
    if off.(v + 1) > off.(v) then begin
      let d = tbl.(v) in
      let f0 = field d 0 and f1 = field d 1 in
      let f2 = field d 2 and f3 = field d 3 in
      let key = (imin (imin f0 f1) (imin f2 f3) lsl 20) + f0 + f1 + f2 + f3 in
      if key > !best_key then begin
        best := v;
        best_key := key
      end
    end
  done;
  !best

let landmarks g =
  let c = Graph.csr g in
  let off = c.csr_off and tgt = c.csr_tgt in
  let n = Graph.original_size g in
  let tbl = Array.make n ((1 lsl (field_bits * landmark_count)) - 1) in
  if n > 0 then begin
    let q = Array.make n 0 in
    (* the first landmark is the smallest id with a neighbour *)
    let l = ref 0 in
    while !l < n - 1 && off.(!l + 1) = off.(!l) do
      incr l
    done;
    for j = 0 to landmark_count - 1 do
      landmark_bfs off tgt tbl q j !l;
      if j < landmark_count - 1 then l := farthest off tbl ~default:!l
    done
  end;
  { l_off = off; l_tgt = tgt; l_dist = tbl }

let check_rows lm (c : Graph.csr) =
  if c.csr_off != lm.l_off || c.csr_tgt != lm.l_tgt then
    invalid_arg "Analysis: landmarks built from another graph"

(* Whether some landmark reaches exactly one of the nodes whose fields
   are [du] and [dv], which then lie in different components of the
   structure. *)
let apart du dv =
  let split = ref false in
  for j = 0 to landmark_count - 1 do
    if field du j = unreached <> (field dv j = unreached) then split := true
  done;
  !split

let lower_bound lm u v =
  let du = lm.l_dist.(u) and dv = lm.l_dist.(v) in
  let h = ref 0 in
  for j = 0 to landmark_count - 1 do
    let a = field du j and b = field dv j in
    if a <> unreached && b <> unreached then h := max !h (abs (a - b))
  done;
  !h

(* The bound between the node with fields [d] and a target with fields
   [t0 .. t3], when the two are not [apart]: a landmark then reaches
   both or neither, and one that reaches neither has [unreached] in
   both fields, a zero term. *)
let bound d t0 t1 t2 t3 =
  imax
    (imax (iabs ((d land unreached) - t0)) (iabs (field d 1 - t1)))
    (imax (iabs (field d 2 - t2)) (iabs (field d 3 - t3)))

(* --- guided search --------------------------------------------------------- *)

(* The budget factor of {!guided_distances}: a target's search may
   settle [budget * (LB + 1)] nodes, LB being the least bound from its
   sources (DESIGN.md §11 has the measured ratios that set it). *)
let budget = 64

exception Overrun

let is_live alive v = v >= 0 && v < Array.length alive && alive.(v)

(* A source the search towards the target with fields [dt] starts from:
   live, and not provably in another component. *)
let usable tbl alive dt s = is_live alive s && not (apart tbl.(s) dt)

let bound_to d dt = bound d (field dt 0) (field dt 1) (field dt 2) (field dt 3)

(* The least bound above [above] of a usable source; [max_int] if none. *)
let rec least_bound tbl alive dt ~above acc = function
  | [] -> acc
  | s :: rest ->
      let acc =
        if usable tbl alive dt s then
          let h = bound_to tbl.(s) dt in
          if h > above && h < acc then h else acc
        else acc
      in
      least_bound tbl alive dt ~above acc rest

(* Push [v] on bucket [b], doubling the buckets when they are full. *)
let open_push sc b v =
  let i = (3 * sc.s_top.(b)) + b in
  if i >= Array.length sc.s_open then begin
    let a = Array.make (2 * Array.length sc.s_open) 0 in
    Array.blit sc.s_open 0 a 0 (Array.length sc.s_open);
    sc.s_open <- a
  end;
  sc.s_open.(i) <- v;
  sc.s_top.(b) <- sc.s_top.(b) + 1

(* Start every usable source at length 0, touched once; returns the new
   touched count. *)
let rec touch_sources tbl alive sc dt k = function
  | [] -> k
  | s :: rest ->
      let k =
        if usable tbl alive dt s && sc.s_dist.(s) = max_int then begin
          sc.s_dist.(s) <- 0;
          sc.s_queue.(k) <- s;
          k + 1
        end
        else k
      in
      touch_sources tbl alive sc dt k rest

(* Queue on bucket [b] the usable sources whose bound is [f]. *)
let rec push_sources tbl alive sc dt ~f ~b = function
  | [] -> ()
  | s :: rest ->
      if usable tbl alive dt s && bound_to tbl.(s) dt = f then open_push sc b s;
      push_sources tbl alive sc dt ~f ~b rest

(* Back to idle: every cell written belongs to a touched node. *)
let reset sc touched =
  for i = 0 to touched - 1 do
    let v = sc.s_queue.(i) in
    sc.s_dist.(v) <- max_int;
    Bytes.set sc.s_mark v '\000'
  done;
  Array.fill sc.s_top 0 3 0

(* A* from the usable sources to the live node [t] over the live graph,
   f = g + h with h the landmark bound towards [t].  h is consistent, so
   an edge moves f by 0, 1 or 2 and the open nodes' f lie in [F .. F +
   2], F the least: three LIFO buckets, [cur] holding F's, rotate as F
   grows.  A node whose length drops is pushed again and its old entry
   popped closed.  A source enters when F reaches its bound.  A dead
   node's length cell holds [settled], so the length test turns it
   away.  Raises [Overrun], idle again, once it settles more than
   [budget * (LB + 1)] nodes. *)
let guided_one tbl (c : Graph.csr) sc sources t ~budget =
  let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
  let alive = c.csr_node_alive and edge_alive = c.csr_edge_alive in
  let len = sc.s_dist and closed = sc.s_mark and top = sc.s_top in
  let dt = tbl.(t) in
  let t0 = field dt 0 and t1 = field dt 1 and t2 = field dt 2 in
  let t3 = field dt 3 in
  let touched = ref (touch_sources tbl alive sc dt 0 sources) in
  let lb = least_bound tbl alive dt ~above:(-1) max_int sources in
  let result = ref (-1) in
  sc.s_settled <- 0;
  if lb = max_int then result := max_int
  else begin
    let cap = if lb + 1 > max_int / budget then max_int else budget * (lb + 1) in
    let f = ref lb and cur = ref 0 and settled = ref 0 in
    push_sources tbl alive sc dt ~f:lb ~b:0 sources;
    let next = ref (least_bound tbl alive dt ~above:lb max_int sources) in
    while !result < 0 do
      let b = !cur in
      let h = top.(b) in
      if h > 0 then begin
        top.(b) <- h - 1;
        let v = sc.s_open.((3 * (h - 1)) + b) in
        if Bytes.get closed v = '\000' then
          if v = t then result := len.(v)
          else begin
            Bytes.set closed v '\001';
            incr settled;
            if !settled > cap then begin
              sc.s_settled <- !settled;
              reset sc !touched;
              raise Overrun
            end;
            let x = len.(v) + 1 in
            for s = off.(v) to off.(v + 1) - 1 do
              let w = tgt.(s) in
              if x < len.(w) && edge_alive.(eid.(s)) then begin
                if len.(w) = max_int then begin
                  sc.s_queue.(!touched) <- w;
                  incr touched
                end;
                len.(w) <- x;
                let bw = b + x + bound tbl.(w) t0 t1 t2 t3 - !f in
                let bw = if bw >= 3 then bw - 3 else bw in
                (* [open_push], its common case inlined (3-13% of a
                   settled node's cost) *)
                let i = (3 * top.(bw)) + bw in
                if i < Array.length sc.s_open then begin
                  sc.s_open.(i) <- w;
                  top.(bw) <- top.(bw) + 1
                end
                else open_push sc bw w
              end
            done
          end
      end
      else if top.(0) + top.(1) + top.(2) > 0 || !next < max_int then begin
        (* F's bucket is empty: the next F, or with nothing open the
           next source's bound *)
        if top.(0) + top.(1) + top.(2) > 0 then begin
          incr f;
          cur := if b = 2 then 0 else b + 1
        end
        else f := !next;
        if !f = !next then begin
          push_sources tbl alive sc dt ~f:!f ~b:!cur sources;
          next := least_bound tbl alive dt ~above:!f max_int sources
        end
      end
      else result := max_int
    done;
    sc.s_settled <- !settled
  end;
  reset sc !touched;
  !result

(* The answers in target order; raises [Overrun]. *)
let rec guided_all tbl c sc sources = function
  | [] -> []
  | t :: rest ->
      let d =
        if is_live c.Graph.csr_node_alive t then guided_one tbl c sc sources t ~budget
        else max_int
      in
      d :: guided_all tbl c sc sources rest

(* The work the targets' budgets allow, from [acc], stopping once it
   passes [limit]: [budget * (LB + 1)] settled nodes and one bound per
   source for each live target. *)
let rec predicted tbl alive ~sources ~per_target ~limit acc = function
  | [] -> acc
  | _ when acc > limit -> acc
  | t :: rest ->
      let acc =
        if is_live alive t then
          let lb = least_bound tbl alive tbl.(t) ~above:(-1) max_int sources in
          acc + per_target + if lb = max_int then 0 else budget * (lb + 1)
        else acc
      in
      predicted tbl alive ~sources ~per_target ~limit acc rest

let guided_distances lm g sc ~sources ~targets =
  let c = Graph.csr g in
  check_rows lm c;
  let tbl = lm.l_dist and limit = Graph.node_count g in
  let work =
    predicted tbl c.csr_node_alive ~sources ~per_target:(List.length sources)
      ~limit 0 targets
  in
  if work > limit then None
  else
    match guided_all tbl c sc sources targets with
    | d -> Some d
    | exception Overrun -> None

let guided_search lm g sc ~sources ~budget t =
  if budget < 1 then invalid_arg "Analysis.guided_search: budget < 1";
  let c = Graph.csr g in
  check_rows lm c;
  sc.s_settled <- 0;
  if not (is_live c.csr_node_alive t) then Some max_int
  else
    match guided_one lm.l_dist c sc sources t ~budget with
    | d -> Some d
    | exception Overrun -> None

(* --- Tarjan low-link ---------------------------------------------------- *)

(* Iterative Tarjan over the live graph, one DFS tree per unvisited live
   node in ascending id order.  A frame is (node, parent edge id, next
   CSR slot), kept in three int arrays indexed by stack depth, and a
   frame walks its row's slots in order, so the DFS forest is the one a
   walk over [Graph.incident] lists builds.  The results are marks: per
   edge [tree] or [bridge] (a bridge is a tree edge), per node whether
   it is a cut vertex.  Low-links fold into the parent when a frame
   pops.  All of it lives in a [dfs] record, which a caller that walks
   one graph again and again (a serve view) keeps: a walk then resets
   the discovery times and marks, and allocates nothing. *)
let tree = '\001'
let bridge = '\002'

type dfs = {
  disc : int array;
  low : int array;
  f_node : int array;
  f_edge : int array;
  f_slot : int array;
  edge_mark : Bytes.t;
  cut : Bytes.t;
}

let dfs g =
  let n = Graph.original_size g in
  let m = Array.length (Graph.csr g).csr_edge_alive in
  {
    disc = Array.make n (-1);
    low = Array.make n 0;
    f_node = Array.make n 0;
    f_edge = Array.make n 0;
    f_slot = Array.make n 0;
    edge_mark = Bytes.make m '\000';
    cut = Bytes.make n '\000';
  }

let lowlink_in bufs g =
  let c = Graph.csr g in
  let off = c.csr_off and tgt = c.csr_tgt and eid = c.csr_eid in
  let node_alive = c.csr_node_alive and edge_alive = c.csr_edge_alive in
  let n = Graph.original_size g in
  if
    Array.length bufs.disc <> n
    || Bytes.length bufs.edge_mark <> Array.length edge_alive
  then invalid_arg "Analysis: dfs arrays of another graph";
  let { disc; low; f_node; f_edge; f_slot; edge_mark; cut } = bufs in
  Array.fill disc 0 n (-1);
  Bytes.fill edge_mark 0 (Bytes.length edge_mark) '\000';
  Bytes.fill cut 0 n '\000';
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
  bufs

let lowlink g = lowlink_in (dfs g) g

let bridges_in bufs g =
  let { edge_mark; _ } = lowlink_in bufs g in
  ascending (Bytes.length edge_mark) (fun e -> Bytes.get edge_mark e = bridge)

let bridges g = bridges_in (dfs g) g

let articulation_points g =
  let { cut; _ } = lowlink g in
  ascending (Bytes.length cut) (fun v -> Bytes.get cut v <> '\000')

let spanning_tree_edges g =
  let { edge_mark; _ } = lowlink g in
  ascending (Bytes.length edge_mark) (fun e -> Bytes.get edge_mark e <> '\000')
