(* One partition of a sharded network: a contiguous node range [lo, hi)
   with its own copy of the owned states, a translated view of the global
   CSR slice, ghost buffers holding the last exchanged state of every
   remote neighbour, and outbound message queues towards each peer shard.

   The translation trick: the rows of a contiguous node range occupy a
   contiguous slice [off.(lo) .. off.(hi)) of the global CSR, so one
   [code] array parallel to that slice maps every adjacency slot to
   either a local index (< n_local) or [n_local +] a ghost index.  A
   view fill is then a straight loop over the slice — the same slots, in
   the same order, with the same liveness filter as
   [Graph.iter_neighbours] — reading only shard-local memory, which is
   what makes the sharded read phase race-free by construction. *)

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
  n_local : int;
  slot0 : int;  (* global CSR slot base: off.(lo) *)
  code : int array;
      (* per slice slot: local target index, or n_local + ghost index *)
  states : 'q array;  (* the owned partition, length n_local *)
  next : 'q array;  (* commit buffer, length n_local *)
  ghosts : 'q array;  (* frozen remote-boundary states *)
  ghost_ids : int array;  (* ghost index -> global node id, ascending *)
  (* outbound wiring, CSR over local nodes: entry j of node li names the
     peer shard and the ghost slot this node occupies there.  Entries of
     one node ascend by peer shard. *)
  out_off : int array;
  out_peer : int array;
  out_slot : int array;
  outboxes : 'q queue array;  (* one per peer shard; self stays empty *)
  frontier : int array;  (* global ids of the nodes stepped this round *)
  mutable n_front : int;
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

(* Build all K shards for one boundary vector.  Inherently global: the
   outbound wiring of a shard is derived from the ghost lists of its
   peers.  O(n + total slice length) with two reusable n-sized scratch
   arrays; ghost lists are sorted so ghost indices (= message slots) are
   a deterministic function of the partition alone. *)
let build ~(csr : Graph.csr) ~boundaries ~(states : 'q array) : 'q t array =
  let k = Array.length boundaries - 1 in
  let n = Array.length states in
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
  Array.iteri
    (fun _p ids ->
      Array.iter
        (fun gid ->
          let o = owner.(gid) in
          let li = gid - boundaries.(o) in
          out_deg.(o).(li) <- out_deg.(o).(li) + 1)
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
    Array.init k (fun o -> Array.make out_off.(o).(Array.length out_off.(o) - 1) 0)
  in
  let out_slot = Array.map Array.copy out_peer in
  let out_pos =
    Array.init k (fun o -> Array.sub out_off.(o) 0 (Array.length out_off.(o) - 1))
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
  (* outbox s -> p carries at most one message per ghost that p holds of
     a node of s per round (a node commits at most once), so sizing it
     to that count here means steady-state pushes never grow it *)
  let out_cap = Array.init k (fun _ -> Array.make k 0) in
  Array.iteri
    (fun p ids ->
      Array.iter
        (fun gid ->
          let o = owner.(gid) in
          out_cap.(o).(p) <- out_cap.(o).(p) + 1)
        ids)
    ghost_ids;
  (* pass 3: the shard records *)
  let gpos = Array.make (max n 1) 0 in
  Array.init k (fun s ->
      let lo = boundaries.(s) and hi = boundaries.(s + 1) in
      let nl = hi - lo in
      let gids = ghost_ids.(s) in
      Array.iteri (fun j gid -> gpos.(gid) <- j) gids;
      let slot0 = off.(lo) in
      let nslots = off.(hi) - slot0 in
      let code = Array.make nslots 0 in
      for i = 0 to nslots - 1 do
        let w = tgt.(slot0 + i) in
        code.(i) <- (if w >= lo && w < hi then w - lo else nl + gpos.(w))
      done;
      {
        id = s;
        lo;
        hi;
        n_local = nl;
        slot0;
        code;
        states = Array.sub states lo nl;
        next = Array.sub states lo nl;
        ghosts = Array.init (Array.length gids) (fun j -> states.(gids.(j)));
        ghost_ids = gids;
        out_off = out_off.(s);
        out_peer = out_peer.(s);
        out_slot = out_slot.(s);
        outboxes =
          Array.init k (fun p ->
              let c = out_cap.(s).(p) in
              {
                q_slots = Array.make c 0;
                q_states = (if c = 0 then [||] else Array.make c states.(lo));
                q_len = 0;
              });
        frontier = Array.make nl 0;
        n_front = 0;
        scratch = View.scratch ();
        last_committed = 0;
        msgs_out = 0;
      })

(* --- read phase -------------------------------------------------------- *)

(* Fill one node's view from local + ghost memory and step it.  Same
   slots, same order, same liveness filter as [Graph.iter_neighbours]
   over the global CSR — so the view (and hence the transition) is
   bit-identical to the flat engine's. *)
let read_one sh ~(csr : Graph.csr) ~(aut : 'q Fssga.t) ~rng v =
  let scratch = sh.scratch in
  View.clear scratch;
  let nl = sh.n_local in
  let eid = csr.Graph.csr_eid
  and tgt = csr.Graph.csr_tgt
  and edge_alive = csr.Graph.csr_edge_alive
  and node_alive = csr.Graph.csr_node_alive in
  for i = csr.Graph.csr_off.(v) to csr.Graph.csr_off.(v + 1) - 1 do
    if edge_alive.(eid.(i)) && node_alive.(tgt.(i)) then begin
      let c = sh.code.(i - sh.slot0) in
      View.push scratch (if c < nl then sh.states.(c) else sh.ghosts.(c - nl))
    end
  done;
  sh.next.(v - sh.lo) <- aut.Fssga.step ~self:sh.states.(v - sh.lo) ~rng scratch

(* This round's stepped set, ascending, is loaded into [frontier] before
   the read: every live owned node for a naive round, or the shard's
   slice of the sorted dirty frontier for a dirty one. *)
let load_live sh ~(csr : Graph.csr) =
  let node_alive = csr.Graph.csr_node_alive in
  let kf = ref 0 in
  for v = sh.lo to sh.hi - 1 do
    if node_alive.(v) then begin
      sh.frontier.(!kf) <- v;
      incr kf
    end
  done;
  sh.n_front <- !kf

let load_slice sh (front : int array) ~first ~stop =
  Array.blit front first sh.frontier 0 (stop - first);
  sh.n_front <- stop - first

(* Step the loaded set.  Returns the stepped count — the shard's
   activation contribution. *)
let read sh ~(csr : Graph.csr) ~aut ~det ~shared_rng ~(rngs : Prng.t array) =
  for i = 0 to sh.n_front - 1 do
    let v = sh.frontier.(i) in
    let rng = if det then shared_rng else rngs.(v) in
    read_one sh ~csr ~aut ~rng v
  done;
  sh.n_front

let stepped sh = sh.n_front

(* --- commit phase ------------------------------------------------------ *)

let enqueue sh q' li =
  for j = sh.out_off.(li) to sh.out_off.(li + 1) - 1 do
    queue_push sh.outboxes.(sh.out_peer.(j)) sh.out_slot.(j) q';
    sh.msgs_out <- sh.msgs_out + 1
  done

(* Quiet commit of the stepped set through the flat engine's per-node
   helper (which owns the dirty re-marks); changed states update the
   local copy and are enqueued towards every peer holding a ghost of the
   node.  Safe to run concurrently across shards — each touches only its
   own range (plus benign dirty-flag races). *)
let commit_quiet sh ~net =
  let ch = ref 0 in
  for i = 0 to sh.n_front - 1 do
    let v = sh.frontier.(i) in
    let li = v - sh.lo in
    let q' = sh.next.(li) in
    if Network.commit_node_quiet net v q' then begin
      incr ch;
      sh.states.(li) <- q';
      enqueue sh q' li
    end
  done;
  sh.last_committed <- !ch;
  !ch

(* Recorded commit: full bookkeeping (recorder activation hook included)
   per stepped node.  Called shard-ascending on one domain, so the
   telemetry stream is the flat engine's, byte for byte. *)
let commit_recorded sh ~net =
  let ch = ref 0 in
  for i = 0 to sh.n_front - 1 do
    let v = sh.frontier.(i) in
    let li = v - sh.lo in
    let q' = sh.next.(li) in
    if Network.commit_node net v q' then begin
      incr ch;
      sh.states.(li) <- q';
      enqueue sh q' li
    end
  done;
  sh.last_committed <- !ch;
  !ch

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

(* Refresh local copies and ghosts from the flat state array (the
   authority) and drop any undelivered messages — used after external
   state writes (faults, [set_state], [restore]) moved the epoch.  A
   cell is written only when it does not already hold the authority's
   value (physically): the external writes that trigger a resync touch
   a handful of nodes, and every cell left alone is a write barrier
   saved.  Every ghost is still compared, so link-fault semantics are
   untouched. *)
let resync sh ~(states : 'q array) =
  let loc = sh.states in
  for li = 0 to sh.n_local - 1 do
    let q = states.(sh.lo + li) in
    if q != loc.(li) then loc.(li) <- q
  done;
  let ghosts = sh.ghosts and ids = sh.ghost_ids in
  for j = 0 to Array.length ids - 1 do
    let q = states.(ids.(j)) in
    if q != ghosts.(j) then ghosts.(j) <- q
  done;
  for d = 0 to Array.length sh.outboxes - 1 do
    sh.outboxes.(d).q_len <- 0
  done

type 'q snap = { sn_states : 'q array; sn_ghosts : 'q array }

let snapshot sh =
  { sn_states = Array.copy sh.states; sn_ghosts = Array.copy sh.ghosts }

let restore_snap sh snap =
  Array.blit snap.sn_states 0 sh.states 0 sh.n_local;
  Array.blit snap.sn_ghosts 0 sh.ghosts 0 (Array.length sh.ghosts);
  Array.iter (fun q -> q.q_len <- 0) sh.outboxes

(* --- telemetry accessors ------------------------------------------------ *)

let id sh = sh.id
let lo sh = sh.lo
let hi sh = sh.hi
let n_local sh = sh.n_local
let ghost_count sh = Array.length sh.ghost_ids
let last_committed sh = sh.last_committed
let msgs_out sh = sh.msgs_out
