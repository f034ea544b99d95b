(* One partition of a sharded network: a contiguous node range [lo, hi)
   of the flat engine's state array, ghost buffers holding the last
   exchanged state of every remote neighbour, and outbound message
   queues towards each peer shard.

   A view fill walks the node's row of the global CSR — the same slots,
   in the same order, with the same liveness filter as
   [Graph.iter_neighbours] — and records an owned neighbour by its node
   id, which the view reads from the flat array, and a remote one by
   the complement of its ghost index, which it reads from the ghosts.
   The rows of a contiguous node range occupy a contiguous slice
   [off.(lo) .. off.(hi)) of the global CSR, so one [code] array
   parallel to that slice gives each remote slot its ghost index.  Next
   states go to the network's commit buffer, and a dirty round's
   stepped set is the shard's slice of the network's frontier buffer,
   read in place: the shards' ranges are disjoint, so shards on several
   domains never touch the same cell.  Only this shard's commit writes
   its slice of the flat array and no commit runs during a read phase,
   which is what makes the sharded read phase race-free by
   construction.  A lone shard has no ghosts and sends nothing, so it
   owns nothing of size n and costs O(1) to lay out. *)

module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module View = Symnet_core.View
module Fssga = Symnet_core.Fssga

(* An outbound queue: (ghost slot in the destination shard, new state)
   pairs appended at commit, drained by the destination at exchange.
   Slots and states live in parallel growable arrays so steady-state
   pushes allocate nothing. *)
type 'q queue = {
  mutable q_slots : int array;
  mutable q_states : 'q array;
  mutable q_len : int;
}

type 'q t = {
  id : int;
  lo : int;
  hi : int;  (* owned node range [lo, hi) *)
  net : 'q Network.t;
  csr : Graph.csr;
  states : 'q array;
      (* the flat engine's state array itself, not a copy: this shard
         reads and commits its owned cells [lo, hi) there *)
  slot0 : int;  (* global CSR slot base: off.(lo) *)
  code : int array;
      (* per slice slot with a remote target: its ghost index; [||] for
         a shard without ghosts *)
  ghosts : 'q array;
      (* frozen remote-boundary states; the view scratches are bound to
         this array, so it is written in place, never replaced *)
  ghost_ids : int array;  (* ghost index -> global node id, ascending *)
  (* outbound wiring, CSR over local nodes: entry j of node li names the
     peer shard and the ghost slot this node occupies there.  Entries of
     one node ascend by peer shard.  [out_off] is [||] for a lone
     shard. *)
  out_off : int array;
  out_peer : int array;
  out_slot : int array;
  outboxes : 'q queue array;  (* one per peer shard; self stays empty *)
  mutable first : int;
  mutable stop : int;
      (* this round's stepped set: [first, stop) of the network's
         frontier buffer, or every live owned node when [first < 0] *)
  mutable stepped : int;  (* nodes stepped by the last read *)
  scratch : 'q View.t;
  mutable last_committed : int;  (* transitions committed last round *)
  mutable msgs_out : int;  (* cumulative messages enqueued *)
}

let queue_push q slot x =
  let cap = Array.length q.q_slots in
  if q.q_len = cap then begin
    let ncap = max 8 (2 * cap) in
    let ns = Array.make ncap 0 in
    Array.blit q.q_slots 0 ns 0 cap;
    q.q_slots <- ns;
    let nx = Array.make ncap x in
    Array.blit q.q_states 0 nx 0 cap;
    q.q_states <- nx
  end;
  q.q_slots.(q.q_len) <- slot;
  q.q_states.(q.q_len) <- x;
  q.q_len <- q.q_len + 1

(* --- layout ------------------------------------------------------------ *)

(* A view scratch bound to the flat state array and the ghosts, so an
   owned neighbour is pushed as its node id and a remote one as the
   complement of its ghost index. *)
let bound_scratch ~states ~ghosts =
  let v = View.scratch () in
  View.bind v ~states ~ghosts;
  v

let make ~net ~csr ~id ~lo ~hi ~code ~ghost_ids ~out_off ~out_peer ~out_slot
    ~outboxes =
  let states = Network.raw_states net in
  let ghosts = Array.map (fun gid -> states.(gid)) ghost_ids in
  {
    id;
    lo;
    hi;
    net;
    csr;
    states;
    slot0 = csr.Graph.csr_off.(lo);
    code;
    ghosts;
    ghost_ids;
    out_off;
    out_peer;
    out_slot;
    outboxes;
    first = -1;
    stop = 0;
    stepped = 0;
    scratch = bound_scratch ~states ~ghosts;
    last_committed = 0;
    msgs_out = 0;
  }

(* Build all K shards for one boundary vector.  Inherently global: the
   outbound wiring of a shard is derived from the ghost lists of its
   peers.  O(n + total slice length) with two reusable n-sized scratch
   arrays; ghost lists are sorted so ghost indices (= message slots) are
   a deterministic function of the partition alone.  One shard skips
   all of it. *)
let build ~net ~boundaries : 'q t array =
  let k = Array.length boundaries - 1 in
  let csr = Graph.csr (Network.graph net) in
  let n = Array.length (Network.raw_states net) in
  if k = 1 then
    [|
      make ~net ~csr ~id:0 ~lo:0 ~hi:n ~code:[||] ~ghost_ids:[||] ~out_off:[||]
        ~out_peer:[||] ~out_slot:[||] ~outboxes:[||];
    |]
  else begin
    let off = csr.Graph.csr_off and tgt = csr.Graph.csr_tgt in
    let owner = Array.make (max n 1) 0 in
    for s = 0 to k - 1 do
      for v = boundaries.(s) to boundaries.(s + 1) - 1 do
        owner.(v) <- s
      done
    done;
    (* pass 1: each shard's ghost set (remote endpoints of its slice) *)
    let mark = Array.make (max n 1) (-1) in
    let ghost_ids = Array.make k [||] in
    for s = 0 to k - 1 do
      let lo = boundaries.(s) and hi = boundaries.(s + 1) in
      let buf = ref [] and cnt = ref 0 in
      for i = off.(lo) to off.(hi) - 1 do
        let w = tgt.(i) in
        if (w < lo || w >= hi) && mark.(w) <> s then begin
          mark.(w) <- s;
          buf := w :: !buf;
          incr cnt
        end
      done;
      let ids = Array.make !cnt 0 in
      List.iteri (fun i w -> ids.(i) <- w) !buf;
      Array.sort compare ids;
      ghost_ids.(s) <- ids
    done;
    (* pass 2: outbound wiring — shard p's ghost j for node gid means the
       owner of gid sends (slot j, state) to p whenever gid changes.
       Iterating p then j ascending makes each node's entries ascend by
       peer, deterministically. *)
    let out_deg =
      Array.init k (fun s -> Array.make (boundaries.(s + 1) - boundaries.(s)) 0)
    in
    (* outbox o -> p carries at most one message per ghost that p holds
       of a node of o per round (a node commits at most once), so sizing
       it to that count here means steady-state pushes never grow it *)
    let out_cap = Array.init k (fun _ -> Array.make k 0) in
    Array.iteri
      (fun p ids ->
        Array.iter
          (fun gid ->
            let o = owner.(gid) in
            let li = gid - boundaries.(o) in
            out_deg.(o).(li) <- out_deg.(o).(li) + 1;
            out_cap.(o).(p) <- out_cap.(o).(p) + 1)
          ids)
      ghost_ids;
    let out_off =
      Array.init k (fun o ->
          let nl = boundaries.(o + 1) - boundaries.(o) in
          let a = Array.make (nl + 1) 0 in
          for i = 0 to nl - 1 do
            a.(i + 1) <- a.(i) + out_deg.(o).(i)
          done;
          a)
    in
    let out_peer =
      Array.init k (fun o ->
          Array.make out_off.(o).(Array.length out_off.(o) - 1) 0)
    in
    let out_slot = Array.map Array.copy out_peer in
    let out_pos =
      Array.init k (fun o ->
          Array.sub out_off.(o) 0 (Array.length out_off.(o) - 1))
    in
    Array.iteri
      (fun p ids ->
        Array.iteri
          (fun j gid ->
            let o = owner.(gid) in
            let li = gid - boundaries.(o) in
            let c = out_pos.(o).(li) in
            out_peer.(o).(c) <- p;
            out_slot.(o).(c) <- j;
            out_pos.(o).(li) <- c + 1)
          ids)
      ghost_ids;
    (* pass 3: the shard records *)
    let gpos = Array.make (max n 1) 0 in
    let states = Network.raw_states net in
    Array.init k (fun s ->
        let lo = boundaries.(s) and hi = boundaries.(s + 1) in
        let gids = ghost_ids.(s) in
        Array.iteri (fun j gid -> gpos.(gid) <- j) gids;
        let slot0 = off.(lo) in
        let code =
          if Array.length gids = 0 then [||]
          else
            Array.init (off.(hi) - slot0) (fun i ->
                let w = tgt.(slot0 + i) in
                if w >= lo && w < hi then -1 else gpos.(w))
        in
        let outboxes =
          Array.init k (fun p ->
              let c = out_cap.(s).(p) in
              {
                q_slots = Array.make c 0;
                q_states = (if c = 0 then [||] else Array.make c states.(lo));
                q_len = 0;
              })
        in
        make ~net ~csr ~id:s ~lo ~hi ~code ~ghost_ids:gids ~out_off:out_off.(s)
          ~out_peer:out_peer.(s) ~out_slot:out_slot.(s) ~outboxes)
  end

(* --- read phase -------------------------------------------------------- *)

(* Fill one node's view in [scratch] with the ids of its live
   neighbours — an owned one as itself, a remote one as the complement
   of its ghost index — and step it.  Same slots, same order, same
   liveness filter as [Graph.iter_neighbours] over the global CSR — so
   the view (and hence the transition) is bit-identical to the flat
   engine's, as is the rng the step sees.  The ids are ints, so the
   fill runs no write barrier; nor does a step whose result [next.(v)]
   already holds physically (an unchanged [self] returned again), as
   that store is skipped. *)
let read_one sh ~scratch ~(aut : 'q Fssga.t) ~det ~shared_rng
    ~(rngs : Prng.t array) ~(next : 'q array) v =
  let rng = if det then shared_rng else rngs.(v) in
  View.clear scratch;
  let lo = sh.lo and hi = sh.hi in
  let csr = sh.csr in
  let eid = csr.Graph.csr_eid
  and tgt = csr.Graph.csr_tgt
  and edge_alive = csr.Graph.csr_edge_alive
  and node_alive = csr.Graph.csr_node_alive in
  for i = csr.Graph.csr_off.(v) to csr.Graph.csr_off.(v + 1) - 1 do
    let w = tgt.(i) in
    if edge_alive.(eid.(i)) && node_alive.(w) then
      View.push_id scratch
        (if w >= lo && w < hi then w else lnot sh.code.(i - sh.slot0))
  done;
  let q' = aut.Fssga.step ~self:sh.states.(v) ~rng scratch in
  if next.(v) != q' then next.(v) <- q'

let load_live sh = sh.first <- -1

let load_slice sh ~first ~stop =
  sh.first <- first;
  sh.stop <- stop

(* Positions of the loaded set: owned node offsets from [lo] in a naive
   round (dead ones are skipped), frontier offsets from [first] in a
   dirty one. *)
let size sh = if sh.first < 0 then sh.hi - sh.lo else sh.stop - sh.first

(* Step positions [a, b) of the loaded set into [next]; returns the
   nodes stepped.  Disjoint ranges write disjoint cells of [next]. *)
let read_range sh ~scratch ~aut ~det ~shared_rng ~rngs ~next a b =
  if sh.first < 0 then begin
    let alive = sh.csr.Graph.csr_node_alive in
    let c = ref 0 in
    for v = sh.lo + a to sh.lo + b - 1 do
      if alive.(v) then begin
        incr c;
        read_one sh ~scratch ~aut ~det ~shared_rng ~rngs ~next v
      end
    done;
    !c
  end
  else begin
    let front = Network.raw_frontier sh.net in
    for i = sh.first + a to sh.first + b - 1 do
      read_one sh ~scratch ~aut ~det ~shared_rng ~rngs ~next front.(i)
    done;
    b - a
  end

(* A lone shard has no ghosts and no peers, so equal slices of its
   loaded set read, and then commit, independently on a pool's slots:
   balanced whatever the frontier's shape.  [run] spreads the slices;
   [f a b] handles one and returns its nodes or transitions. *)
let split sh ~run f =
  if Array.length sh.outboxes > 0 then
    invalid_arg "Shard: only a lone shard splits over a pool";
  let count = Atomic.make 0 in
  run ~n:(size sh) (fun _slot a b ->
      ignore (Atomic.fetch_and_add count (f a b)));
  Atomic.get count

(* Step the loaded set into [next]; on a pool, each slice fills a view
   scratch of its own. *)
let read ?pool sh ~aut ~det ~shared_rng ~rngs ~next =
  sh.stepped <-
    (match pool with
    | None ->
        read_range sh ~scratch:sh.scratch ~aut ~det ~shared_rng ~rngs ~next 0
          (size sh)
    | Some pool ->
        split sh ~run:(Domain_pool.run pool) (fun a b ->
            let scratch = bound_scratch ~states:sh.states ~ghosts:sh.ghosts in
            read_range sh ~scratch ~aut ~det ~shared_rng ~rngs ~next a b))

let stepped sh = sh.stepped

(* --- commit phase ------------------------------------------------------ *)

(* Commit one stepped node through the flat engine's per-node write
   (which owns the epoch, the write log, the dirty re-marks and the
   recorder hook) and enqueue a changed state towards every peer holding
   a ghost of it. *)
let commit_one sh ~next v =
  let q' = next.(v) in
  let changed = Network.commit_node sh.net v q' in
  if changed && Array.length sh.out_off > 0 then begin
    let li = v - sh.lo in
    for j = sh.out_off.(li) to sh.out_off.(li + 1) - 1 do
      queue_push sh.outboxes.(sh.out_peer.(j)) sh.out_slot.(j) q';
      sh.msgs_out <- sh.msgs_out + 1
    done
  end;
  changed

(* Commit positions [a, b) of the stepped set from [next], ascending;
   returns the transitions.  Shards may commit concurrently (inside
   [Network.commit_parallel]): each writes only its own range, plus
   benign dirty-flag races; so may the ranges of a lone shard, which
   sends nothing.  Called shard-ascending on one domain, the recorder's
   activation stream is the flat engine's, byte for byte. *)
let commit_range sh ~next a b =
  let ch = ref 0 in
  if sh.first < 0 then begin
    let alive = sh.csr.Graph.csr_node_alive in
    for v = sh.lo + a to sh.lo + b - 1 do
      if alive.(v) then if commit_one sh ~next v then incr ch
    done
  end
  else begin
    let front = Network.raw_frontier sh.net in
    for i = sh.first + a to sh.first + b - 1 do
      if commit_one sh ~next front.(i) then incr ch
    done
  end;
  !ch

let commit ?pool sh ~next =
  sh.last_committed <-
    (match pool with
    | None -> commit_range sh ~next 0 (size sh)
    | Some pool ->
        split sh ~run:(Network.commit_parallel sh.net pool) (fun a b ->
            commit_range sh ~next a b))

(* --- exchange phase ---------------------------------------------------- *)

(* Drain every peer's outbox towards shard [d] into [d]'s ghosts, in
   ascending (source shard, enqueue seq) order, and reset the queues.
   Each ghost slot has exactly one writer (the owner of the node), so
   draining different destinations concurrently is race-free; the fixed
   order is what makes the exchange deterministic by construction. *)
let drain shards d =
  let dst = shards.(d) in
  let applied = ref 0 in
  for s = 0 to Array.length shards - 1 do
    let q = shards.(s).outboxes.(d) in
    for i = 0 to q.q_len - 1 do
      dst.ghosts.(q.q_slots.(i)) <- q.q_states.(i)
    done;
    applied := !applied + q.q_len;
    q.q_len <- 0
  done;
  !applied

(* Raw channel access for the adversarial link layer: the link runtime
   (see {!Link}) replaces the direct [drain] with its own fault/retry
   pipeline, so it needs to read one outbox as an ordered batch, reset
   it, and deliver messages into the destination's ghosts itself. *)

let outbox_len sh ~dst = sh.outboxes.(dst).q_len
let outbox_slot sh ~dst i = sh.outboxes.(dst).q_slots.(i)
let outbox_state sh ~dst i = sh.outboxes.(dst).q_states.(i)
let outbox_clear sh ~dst = sh.outboxes.(dst).q_len <- 0

let ghost_global sh slot = sh.ghost_ids.(slot)

(* Apply one message to a ghost slot; returns [true] iff the value
   actually changed (the link layer re-marks the ghost's neighbourhood
   dirty only on a real change, so late deliveries wake readers up). *)
let deliver sh ~slot ~state =
  let changed = sh.ghosts.(slot) <> state in
  sh.ghosts.(slot) <- state;
  changed

(* --- resynchronisation / snapshots ------------------------------------- *)

(* Refresh the ghosts from the flat state array (the authority) and
   drop any undelivered messages — used after external state writes
   (faults, [set_state], [Degrade_links]) moved the epoch.  Owned cells
   need nothing: they are the flat array.  A ghost is written only when
   it does not already hold the authority's value (physically), so a
   resync costs a read pass over the ghosts and a write per moved one.
   With [mark], each ghost it moves also re-marks the ghost node's
   neighbourhood dirty: in a linked run a ghost can be stale because its
   update is still in flight, its readers stepped against the stale
   value and went clean, and the delivery that would have woken them is
   among the messages dropped here. *)
let resync sh ~mark =
  let states = sh.states and ghosts = sh.ghosts and ids = sh.ghost_ids in
  for j = 0 to Array.length ids - 1 do
    let q = states.(ids.(j)) in
    if q != ghosts.(j) then begin
      ghosts.(j) <- q;
      if mark then Network.mark_dirty_around sh.net ids.(j)
    end
  done;
  for d = 0 to Array.length sh.outboxes - 1 do
    sh.outboxes.(d).q_len <- 0
  done

(* Owned states live in the flat array, which the network's own
   checkpoint covers: a shard snapshot is its ghosts. *)
type 'q snap = 'q array

let snapshot sh = Array.copy sh.ghosts

let restore_snap sh snap =
  Array.blit snap 0 sh.ghosts 0 (Array.length sh.ghosts);
  Array.iter (fun q -> q.q_len <- 0) sh.outboxes

(* --- telemetry accessors ------------------------------------------------ *)

let id sh = sh.id
let lo sh = sh.lo
let hi sh = sh.hi
let ghost_count sh = Array.length sh.ghost_ids
let last_committed sh = sh.last_committed
let msgs_out sh = sh.msgs_out
