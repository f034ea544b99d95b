module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module View = Symnet_core.View
module Fssga = Symnet_core.Fssga
module Recorder = Symnet_obs.Recorder
module Span = Symnet_obs.Span

type 'q t = {
  graph : Graph.t;
  states : 'q array;
  automaton : 'q Fssga.t;
  mutable rng : Prng.t;
      (* mutable for [restore] (rewind to the checkpointed stream) and
         [reseed] (recovery-policy escape from a pathological walk) *)
  (* Per-slot view cursors and their preallocated [fill] closures.  Slot 0
     is the sequential cursor ([view_of], [activate]); a parallel round
     over a pool of [k] domains uses slots [0 .. k-1], one per domain, so
     cursors never race.  Grown on demand by [ensure_slots]. *)
  mutable scratches : 'q View.t array;
  mutable pushes : (int -> unit) array;
  (* Per-node streams for synchronous probabilistic stepping: node [v]
     draws from [node_rngs.(v)], a keyed split (key = v) of a base stream
     forked off [rng] at the first probabilistic synchronous round, so
     its draw sequence is a function of (base, v) alone — independent of
     domain count and shard schedule.  The fork advances [rng] once, so
     successive networks sharing one rng get distinct walks.  [||] until
     the first probabilistic synchronous round. *)
  mutable node_rngs : Prng.t array;
  mutable next : 'q array; (* sync-step commit buffer; [||] until used *)
  mutable activations : int;
  mutable transitions : int;
      (* activations that changed state; the progress signal the runner's
         watchdog reads.  Parallel quiet commits count per shard into
         [shard_transitions] and merge at the barrier. *)
  mutable recorder : Recorder.t;
  (* Change-driven (dirty-set) scheduling.  [dirty] is empty until a
     dirty round is first requested; from then on it tracks, across every
     mutation path, the nodes whose closed neighbourhood changed since
     they last stepped.  The flags are the source of truth; [work] is a
     worklist over them so a dirty round costs its frontier, not n:
     every flagged node sits in [work.(0 .. n_work - 1)] exactly once,
     unless [work_ok] is false (then the next take rescans the flags).
     [work] holds at most [worklist_capacity n] nodes; overflowing it
     simply invalidates.
     [dirty_scratch] holds the current dirty round's frontier, ascending;
     [sort_buf] and [sort_count] are the radix sort's scratch. *)
  mutable dirty : bool array;
  mutable work : int array;
  mutable n_work : int;
  mutable work_ok : bool;
  mutable rescans : int; (* frontiers taken by a full flag rescan *)
  mutable dirty_scratch : int array;
  mutable sort_buf : int array;
  sort_count : int array;
  csr : Graph.csr;
      (* the graph's CSR arrays (shared), for the closure-free neighbour
         walk of [mark_dirty_around] *)
  mutable graph_version : int;
      (* last Graph.version accounted for in [dirty]; a mismatch at the
         start of a dirty round means the graph was mutated directly
         (outside the fault pipeline) and the whole set is stale *)
  (* Parallel-round merge buffers, one cell per pool slot: activation and
     transition counts written by each shard, summed on the calling
     domain at the barrier (the round's change flag is "any shard
     committed a transition"). *)
  mutable shard_counts : int array;
  mutable shard_transitions : int array;
  mutable par_cutoff : int;
      (* below this many nodes the parallel entry points run the
         sequential path: pool hand-off costs more than the round on
         tiny graphs, and the two paths are bit-identical by contract *)
  mutable epoch : int;
      (* bumped on every state write (commits, [set_state], [activate],
         [restore]); the sharded runtime latches it after each round and
         resyncs its local copies when an external write moved it *)
}

let push_into scratch states = fun w -> View.push scratch states.(w)

let init ~rng graph (automaton : 'q Fssga.t) =
  let states =
    Array.init (Graph.original_size graph) (fun v -> automaton.init graph v)
  in
  let scratch = View.scratch () in
  let t =
    {
      graph;
      states;
      automaton;
      rng;
      scratches = [| scratch |];
      pushes = [| push_into scratch states |];
      node_rngs = [||];
      next = [||];
      activations = 0;
      transitions = 0;
      recorder = Recorder.null;
      dirty = [||];
      work = [||];
      n_work = 0;
      work_ok = false;
      rescans = 0;
      dirty_scratch = [||];
      sort_buf = [||];
      sort_count = Array.make 257 0;
      csr = Graph.csr graph;
      graph_version = Graph.version graph;
      shard_counts = [| 0 |];
      shard_transitions = [| 0 |];
      par_cutoff = 10_000;
      epoch = 0;
    }
  in
  t

let graph t = t.graph
let automaton t = t.automaton
let rng t = t.rng
let recorder t = t.recorder
let set_recorder t r = t.recorder <- r

let state t v = t.states.(v)

let view_of t v =
  let scratch = t.scratches.(0) in
  View.clear scratch;
  Graph.iter_neighbours t.graph v t.pushes.(0);
  scratch

(* --- per-slot / per-node resources ----------------------------------- *)

let ensure_slots t k =
  if Array.length t.scratches < k then begin
    let old = Array.length t.scratches in
    let scratches =
      Array.init k (fun i ->
          if i < old then t.scratches.(i) else View.scratch ())
    in
    let pushes =
      Array.init k (fun i ->
          if i < old then t.pushes.(i) else push_into scratches.(i) t.states)
    in
    t.scratches <- scratches;
    t.pushes <- pushes;
    t.shard_counts <- Array.make k 0;
    t.shard_transitions <- Array.make k 0
  end

let node_rngs t =
  if Array.length t.node_rngs = 0 then begin
    let base = Prng.split t.rng in
    t.node_rngs <-
      Array.init (Array.length t.states) (fun v -> Prng.split_key base ~key:v)
  end;
  t.node_rngs

(* --- dirty-set bookkeeping ------------------------------------------- *)

let dirty_tracking t = Array.length t.dirty > 0

(* Anything that writes flags behind the worklist's back (a blanket
   fill, a restore, a racing parallel commit, the rotor's in-pass scan)
   calls this; the next take then rescans the flags and rebuilds the
   worklist from them. *)
let invalidate_worklist t =
  t.work_ok <- false;
  t.n_work <- 0

(* Raise one flag, queueing the node on its false -> true flip — so
   each flagged node is queued once.  While the worklist is invalid the
   flag alone is written, which is what makes parallel quiet commits
   (they invalidate first) race-free: every racer only stores [true]. *)
let flag t v =
  if not t.dirty.(v) then begin
    t.dirty.(v) <- true;
    if t.work_ok then
      if t.n_work < Array.length t.work then begin
        t.work.(t.n_work) <- v;
        t.n_work <- t.n_work + 1
      end
      else invalidate_worklist t
  end

let mark_dirty t v =
  if dirty_tracking t && v >= 0 && v < Array.length t.dirty then flag t v

(* A changed state at [v] invalidates the last step of [v] itself and of
   every live neighbour.  Walks the CSR row directly (the same slots and
   liveness filter as [Graph.iter_neighbours]) so marking allocates
   nothing.  Shard-safe: see [flag]. *)
let mark_dirty_around t v =
  if dirty_tracking t then begin
    flag t v;
    let c = t.csr in
    if c.Graph.csr_node_alive.(v) then
      for i = c.Graph.csr_off.(v) to c.Graph.csr_off.(v + 1) - 1 do
        if c.Graph.csr_edge_alive.(c.Graph.csr_eid.(i)) then begin
          let w = c.Graph.csr_tgt.(i) in
          if c.Graph.csr_node_alive.(w) then flag t w
        end
      done
  end

(* The cap bounds the worklist's memory and the worst-case sort, and
   sits below the measured break-even: at n = 100,489 with random ids
   (2-core x86 VM), draining and sorting n/16 queued nodes took about
   115 us against 190 us for the flag rescan, n/8 about 210-240 us
   against 250-270 us, and n/4 about 520-610 us against 360-450 us.
   An overflow falls back to the rescan. *)
let worklist_capacity n = max 64 (n / 16)

let start_tracking t dirty =
  let n = Array.length dirty in
  t.dirty <- dirty;
  t.work <- Array.make (worklist_capacity n) 0;
  t.sort_buf <- Array.make (worklist_capacity n) 0;
  invalidate_worklist t

let ensure_tracking t =
  if not (dirty_tracking t) then begin
    (* First dirty round: everything is stale. *)
    start_tracking t (Array.make (Graph.original_size t.graph) true);
    t.graph_version <- Graph.version t.graph
  end

let ack_graph_mutations t = t.graph_version <- Graph.version t.graph

(* Deletions performed directly on the graph (not via the runner's fault
   pipeline, which marks precisely and calls [ack_graph_mutations]) shrink
   an unknown set of views: fall back to everything-dirty. *)
let reconcile_graph t =
  if dirty_tracking t && t.graph_version <> Graph.version t.graph then begin
    t.graph_version <- Graph.version t.graph;
    Array.fill t.dirty 0 (Array.length t.dirty) true;
    invalidate_worklist t
  end

(* --- taking the frontier ----------------------------------------------- *)

(* Sort [a.(0 .. len - 1)] ascending in place, without allocating: a
   least-significant-digit radix sort on 8-bit digits ping-ponging
   through [sort_buf] — O(len) per digit, and ids below n need
   ceil(log2 n / 8) digits (3 at 100k).  On a wavefront's ~950 queued
   ids it took about 20-27 us where an in-place heapsort took 37-60. *)
let sort_ids t (a : int array) len =
  let count = t.sort_count in
  let top = Array.length t.dirty - 1 in
  let src = ref a and dst = ref t.sort_buf and shift = ref 0 in
  while top lsr !shift > 0 do
    let s = !src and d = !dst in
    Array.fill count 0 257 0;
    for i = 0 to len - 1 do
      let b = (s.(i) lsr !shift) land 255 in
      count.(b + 1) <- count.(b + 1) + 1
    done;
    for b = 1 to 256 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = 0 to len - 1 do
      let v = s.(i) in
      let b = (v lsr !shift) land 255 in
      d.(count.(b)) <- v;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := !shift + 8
  done;
  if !src != a then Array.blit !src 0 a 0 len

(* Rescan the flags: the live flagged nodes, unflagged, land ascending
   at the front of the frontier buffer and the dead flagged ones, which
   stay flagged, at its back (together they are at most n); the
   worklist is rebuilt from the dead ones, or left invalid if they
   overflow it.  The loop makes no calls, so its counters stay in
   registers. *)
let rescan t =
  let n = Array.length t.dirty in
  t.rescans <- t.rescans + 1;
  let alive = t.csr.Graph.csr_node_alive in
  let front = t.dirty_scratch and dirty = t.dirty in
  let k = ref 0 and d = ref n in
  for v = 0 to n - 1 do
    if dirty.(v) then
      if alive.(v) then begin
        dirty.(v) <- false;
        front.(!k) <- v;
        incr k
      end
      else begin
        decr d;
        front.(!d) <- v
      end
  done;
  let dead = n - !d in
  t.work_ok <- dead <= Array.length t.work;
  t.n_work <- (if t.work_ok then dead else 0);
  if t.work_ok then Array.blit front !d t.work 0 dead;
  !k

(* Take this dirty round's frontier: the live flagged nodes, ascending,
   into [dirty_scratch.(0 .. k - 1)], with their flags cleared (the
   round consumes them; its commits re-flag exactly the closed
   neighbourhoods of changed nodes).  Dead flagged nodes stay flagged
   and queued for a later round.  From a valid worklist this costs
   O(w) for w <= n/16 queued nodes (plus the sort); an invalid one
   falls back to the O(n) flag rescan, which rebuilds it.  Ascending
   order keeps every order-sensitive consumer (commits, telemetry,
   outbox sequences, link draws) as it was. *)
let take_frontier t =
  let n = Array.length t.dirty in
  if Array.length t.dirty_scratch < n then t.dirty_scratch <- Array.make n 0;
  if t.work_ok then begin
    let alive = t.csr.Graph.csr_node_alive in
    let front = t.dirty_scratch and work = t.work and dirty = t.dirty in
    let k = ref 0 and d = ref 0 in
    for i = 0 to t.n_work - 1 do
      let v = work.(i) in
      if alive.(v) then begin
        dirty.(v) <- false;
        front.(!k) <- v;
        incr k
      end
      else begin
        work.(!d) <- v;
        incr d
      end
    done;
    t.n_work <- !d;
    sort_ids t front !k;
    !k
  end
  else rescan t

let set_state t v q =
  t.states.(v) <- q;
  t.epoch <- t.epoch + 1;
  mark_dirty_around t v

(* --- activation ------------------------------------------------------ *)

let activate t v =
  if not (Graph.is_live_node t.graph v) then false
  else begin
    t.activations <- t.activations + 1;
    let q' = t.automaton.step ~self:t.states.(v) ~rng:t.rng (view_of t v) in
    (* physical equality first: steps that return [self] unchanged (waits,
       fixpoints) skip the deep structural compare *)
    let changed = q' != t.states.(v) && q' <> t.states.(v) in
    if changed then begin
      t.states.(v) <- q';
      t.transitions <- t.transitions + 1;
      t.epoch <- t.epoch + 1;
      mark_dirty_around t v
    end;
    if Recorder.enabled t.recorder then
      Recorder.activation t.recorder ~node:v ~view_size:(Graph.degree t.graph v)
        ~changed;
    changed
  end

let ensure_next t =
  if Array.length t.next < Array.length t.states then
    t.next <- Array.copy t.states;
  t.next

let commit t v q' =
  let changed = q' != t.states.(v) && q' <> t.states.(v) in
  if changed then begin
    t.states.(v) <- q';
    t.transitions <- t.transitions + 1;
    t.epoch <- t.epoch + 1;
    mark_dirty_around t v
  end;
  if Recorder.enabled t.recorder then
    Recorder.activation t.recorder ~node:v ~view_size:(Graph.degree t.graph v)
      ~changed;
  changed

(* Fill [next.(v)] for one node through the slot's cursor.  The rng a
   probabilistic step sees is the node's private stream, never the shared
   one — that is the whole determinism contract of synchronous rounds. *)
let read_node t ~slot ~det v =
  let scratch = t.scratches.(slot) in
  View.clear scratch;
  Graph.iter_neighbours t.graph v t.pushes.(slot);
  let rng = if det then t.rng else t.node_rngs.(v) in
  t.next.(v) <- t.automaton.step ~self:t.states.(v) ~rng scratch

let sync_step t =
  let g = t.graph in
  let n = Graph.original_size g in
  ignore (ensure_next t);
  let det = Fssga.is_deterministic t.automaton in
  if not det then ignore (node_rngs t);
  let sp = Recorder.spans t.recorder in
  let rd = Recorder.round t.recorder in
  (* Read phase against the frozen snapshot, then commit. *)
  let t0 = Span.now sp in
  for v = 0 to n - 1 do
    if Graph.is_live_node g v then begin
      t.activations <- t.activations + 1;
      read_node t ~slot:0 ~det v
    end
  done;
  Span.record sp Span.Read ~shard:0 ~round:rd ~t0;
  let t0 = Span.now sp in
  let any = ref false in
  for v = 0 to n - 1 do
    if Graph.is_live_node g v then if commit t v t.next.(v) then any := true
  done;
  Span.record sp Span.Commit ~shard:0 ~round:rd ~t0;
  !any

(* One synchronous round stepping only dirty nodes.  Sound for
   deterministic automata: a node whose own state and whole neighbourhood
   are unchanged since its last step recomputes the same state (the local
   fixpoint argument behind Dijkstra-style self-stabilizing repair), so
   skipping it is a provable no-op and round counts, change flags and
   final states match naive stepping bit for bit. *)
let sync_step_dirty t =
  ensure_tracking t;
  reconcile_graph t;
  ignore (ensure_next t);
  let det = Fssga.is_deterministic t.automaton in
  if not det then ignore (node_rngs t);
  let sp = Recorder.spans t.recorder in
  let rd = Recorder.round t.recorder in
  let t0 = Span.now sp in
  let k = take_frontier t in
  Span.record sp Span.Frontier ~shard:0 ~round:rd ~t0;
  let frontier = t.dirty_scratch in
  (* Read phase over the dirty frontier, ascending for determinism of the
     telemetry stream. *)
  let t0 = Span.now sp in
  for i = 0 to k - 1 do
    read_node t ~slot:0 ~det frontier.(i)
  done;
  t.activations <- t.activations + k;
  Span.record sp Span.Read ~shard:0 ~round:rd ~t0;
  Recorder.frontier t.recorder ~size:k;
  let t0 = Span.now sp in
  let any = ref false in
  for i = 0 to k - 1 do
    let v = frontier.(i) in
    if commit t v t.next.(v) then any := true
  done;
  Span.record sp Span.Commit ~shard:0 ~round:rd ~t0;
  !any

let rotor_step t =
  let any = ref false in
  Graph.iter_nodes t.graph (fun v -> if activate t v then any := true);
  !any

(* A rotor (fixed ascending order, sequential) round over dirty nodes
   only.  [activate] re-marks closed neighbourhoods on change, so a node
   made dirty by an earlier activation in the same pass is picked up
   later in the same pass — exactly the nodes whose naive-rotor
   activation could have changed state. *)
let rotor_step_dirty t =
  ensure_tracking t;
  reconcile_graph t;
  (* the in-pass scan clears flags the worklist still holds *)
  invalidate_worklist t;
  let g = t.graph in
  let any = ref false in
  for v = 0 to Graph.original_size g - 1 do
    if t.dirty.(v) && Graph.is_live_node g v then begin
      t.dirty.(v) <- false;
      if activate t v then any := true
    end
  done;
  !any

(* --- parallel synchronous rounds ------------------------------------- *)

(* A commit without the recorder hook: the parallel commit phase is only
   taken when no recorder is attached (with one, the commit phase runs
   sequentially so the telemetry stream is bit-identical to the
   sequential engine).  The [mark_dirty_around] stores are the only
   cross-shard writes and are benign (every racer writes [true]) as long
   as the caller invalidated the worklist first, so nobody queues. *)
let commit_quiet t v q' =
  let changed = q' != t.states.(v) && q' <> t.states.(v) in
  if changed then begin
    t.states.(v) <- q';
    (* Racy but monotonic (ints are immediates, every writer adds):
       after the barrier the value differs from any pre-round latch,
       which is all the epoch is for. *)
    t.epoch <- t.epoch + 1;
    mark_dirty_around t v
  end;
  changed

(* Each shard body reads only its own chunk's nodes and writes only its
   own chunk's [next]/[states] cells, its own frontier segment, and its
   own slot's merge cells; [Domain_pool.run]'s mutex hand-off provides
   the happens-before edges either side of each phase. *)

let sync_step_par ~pool t =
  if Domain_pool.size pool <= 1 || Graph.original_size t.graph < t.par_cutoff
  then sync_step t
  else begin
    let g = t.graph in
    let n = Graph.original_size g in
    ignore (ensure_next t);
    ensure_slots t (Domain_pool.size pool);
    let det = Fssga.is_deterministic t.automaton in
    if not det then ignore (node_rngs t);
    let sp = Recorder.spans t.recorder in
    let rd = Recorder.round t.recorder in
    Domain_pool.run pool ~n (fun slot lo hi ->
        let t0 = Span.now sp in
        let c = ref 0 in
        for v = lo to hi - 1 do
          if Graph.is_live_node g v then begin
            incr c;
            read_node t ~slot ~det v
          end
        done;
        t.shard_counts.(slot) <- !c;
        Span.record sp Span.Read ~shard:slot ~round:rd ~t0);
    let t0 = Span.now sp in
    for slot = 0 to Domain_pool.size pool - 1 do
      t.activations <- t.activations + t.shard_counts.(slot)
    done;
    Span.record sp Span.Merge ~shard:0 ~round:rd ~t0;
    if Recorder.enabled t.recorder then begin
      (* Exact telemetry: sequential ascending commit, indistinguishable
         from [sync_step]'s commit phase.  (A span-enabled recorder is
         an enabled recorder, so the quiet parallel commit below never
         runs under profiling — commit spans are sequential.) *)
      let t0 = Span.now sp in
      let any = ref false in
      for v = 0 to n - 1 do
        if Graph.is_live_node g v then if commit t v t.next.(v) then any := true
      done;
      Span.record sp Span.Commit ~shard:0 ~round:rd ~t0;
      !any
    end
    else begin
      invalidate_worklist t;
      Domain_pool.run pool ~n (fun slot lo hi ->
          let ch = ref 0 in
          for v = lo to hi - 1 do
            if Graph.is_live_node g v then
              if commit_quiet t v t.next.(v) then incr ch
          done;
          t.shard_transitions.(slot) <- !ch);
      let any = ref false in
      for slot = 0 to Domain_pool.size pool - 1 do
        t.transitions <- t.transitions + t.shard_transitions.(slot);
        if t.shard_transitions.(slot) > 0 then any := true
      done;
      !any
    end
  end

(* Dirty rounds compose with sharding: the frontier is taken once and
   split into [pool]-many equal slices, each slot reading its own slice.
   Quiet parallel commits invalidate the worklist first — their re-marks
   would race on the queue — so the next round's take rescans the
   flags. *)
let sync_step_dirty_par ~pool t =
  if Domain_pool.size pool <= 1 || Graph.original_size t.graph < t.par_cutoff
  then sync_step_dirty t
  else begin
    ensure_tracking t;
    reconcile_graph t;
    ignore (ensure_next t);
    let slots = Domain_pool.size pool in
    ensure_slots t slots;
    let det = Fssga.is_deterministic t.automaton in
    if not det then ignore (node_rngs t);
    let sp = Recorder.spans t.recorder in
    let rd = Recorder.round t.recorder in
    let t0 = Span.now sp in
    let k = take_frontier t in
    Span.record sp Span.Frontier ~shard:0 ~round:rd ~t0;
    let frontier = t.dirty_scratch in
    Domain_pool.run pool ~n:k (fun slot lo hi ->
        let t0 = Span.now sp in
        for i = lo to hi - 1 do
          read_node t ~slot ~det frontier.(i)
        done;
        Span.record sp Span.Read ~shard:slot ~round:rd ~t0);
    t.activations <- t.activations + k;
    Recorder.frontier t.recorder ~size:k;
    if Recorder.enabled t.recorder then begin
      (* The frontier ascends, so this is the sequential dirty commit
         order, telemetry included. *)
      let t0 = Span.now sp in
      let any = ref false in
      for i = 0 to k - 1 do
        let v = frontier.(i) in
        if commit t v t.next.(v) then any := true
      done;
      Span.record sp Span.Commit ~shard:0 ~round:rd ~t0;
      !any
    end
    else begin
      invalidate_worklist t;
      Domain_pool.run pool ~n:k (fun slot lo hi ->
          let ch = ref 0 in
          for i = lo to hi - 1 do
            let v = frontier.(i) in
            if commit_quiet t v t.next.(v) then incr ch
          done;
          t.shard_transitions.(slot) <- !ch);
      let any = ref false in
      for slot = 0 to slots - 1 do
        t.transitions <- t.transitions + t.shard_transitions.(slot);
        if t.shard_transitions.(slot) > 0 then any := true
      done;
      !any
    end
  end

let dirty_step_sound t = Fssga.is_deterministic t.automaton

(* --- checkpoint / restore -------------------------------------------- *)

type 'q checkpoint = {
  cp_states : 'q array;
  cp_graph : Graph.snapshot;
  cp_rng : Prng.t;
  cp_node_rngs : Prng.t array;
  cp_activations : int;
  cp_transitions : int;
  cp_dirty : bool array; (* [||] when tracking hadn't started *)
  cp_graph_synced : bool;
      (* whether [graph_version] had acknowledged every graph mutation at
         checkpoint time.  The version itself is useless to store:
         [Graph.restore] bumps the counter (strict monotonicity), so the
         checkpointed value can never recur — what must survive a
         rollback is only the synced/pending distinction. *)
}

let checkpoint t =
  {
    cp_states = Array.copy t.states;
    cp_graph = Graph.snapshot t.graph;
    cp_rng = Prng.copy t.rng;
    cp_node_rngs = Array.map Prng.copy t.node_rngs;
    cp_activations = t.activations;
    cp_transitions = t.transitions;
    cp_dirty = Array.copy t.dirty;
    cp_graph_synced = t.graph_version = Graph.version t.graph;
  }

let restore t cp =
  if Array.length cp.cp_states <> Array.length t.states then
    invalid_arg "Network.restore: checkpoint from a different network";
  (* Blit, never replace: the per-slot push closures capture [t.states],
     so the array's identity must survive a restore. *)
  Array.blit cp.cp_states 0 t.states 0 (Array.length t.states);
  Graph.restore t.graph cp.cp_graph;
  (* Fresh copies each time, so restoring twice replays the identical
     random walk both times. *)
  t.rng <- Prng.copy cp.cp_rng;
  t.node_rngs <- Array.map Prng.copy cp.cp_node_rngs;
  t.activations <- cp.cp_activations;
  t.transitions <- cp.cp_transitions;
  (if Array.length cp.cp_dirty > 0 then
     if Array.length t.dirty > 0 then
       Array.blit cp.cp_dirty 0 t.dirty 0 (Array.length t.dirty)
     else start_tracking t (Array.copy cp.cp_dirty)
   else if Array.length t.dirty > 0 then
     (* Tracking started after the checkpoint; a fresh run from that
        point would start it all-dirty too. *)
     Array.fill t.dirty 0 (Array.length t.dirty) true);
  (* the worklist does not travel in checkpoints: rebuild from the
     restored flags at the next take *)
  invalidate_worklist t;
  (* [Graph.restore] just bumped the graph's version.  Re-ack against the
     fresh counter iff the checkpoint had no pending (unacknowledged)
     mutation; otherwise leave a deliberate mismatch so the dirty-set
     reconciler still fires after the rollback, exactly as it would have
     at checkpoint time. *)
  (let v = Graph.version t.graph in
   t.graph_version <- (if cp.cp_graph_synced then v else v - 1));
  t.epoch <- t.epoch + 1

let reseed t rng =
  t.rng <- rng;
  (* Drop the per-node streams so the next probabilistic synchronous
     round re-forks them from the new base. *)
  t.node_rngs <- [||]

let activations t = t.activations
let transitions t = t.transitions
let live_nodes t = Graph.nodes t.graph

(* --- tuning ----------------------------------------------------------- *)

let par_cutoff t = t.par_cutoff

let set_par_cutoff t c =
  if c < 0 then invalid_arg "Network.set_par_cutoff: negative cutoff";
  t.par_cutoff <- c

(* --- engine internals (sharded runtime) -------------------------------- *)

let state_epoch t = t.epoch
let raw_states t = t.states
let raw_dirty t = t.dirty
let raw_node_rngs t = node_rngs t
let ensure_dirty_tracking t = ensure_tracking t
let raw_frontier t = t.dirty_scratch
let frontier_rescans t = t.rescans
let commit_node t v q' = commit t v q'
let commit_node_quiet t v q' = commit_quiet t v q'
let add_activations t k = t.activations <- t.activations + k
let add_transitions t k = t.transitions <- t.transitions + k

let count_if t pred =
  let acc = ref 0 in
  Graph.iter_nodes t.graph (fun v -> if pred t.states.(v) then incr acc);
  !acc

let find_nodes t pred = List.filter (fun v -> pred t.states.(v)) (live_nodes t)
let states t = List.map (fun v -> (v, t.states.(v))) (live_nodes t)

(* --- divide-and-conquer digest backends ------------------------------- *)

module Sm_monoid = Symnet_core.Sm_monoid
module Sm_segtree = Symnet_core.Sm_segtree
module Sm_digest = Symnet_core.Sm_digest
module Clock = Symnet_obs.Clock

type 'q digest = {
  d_net : 'q t;
  d_prog : 'q Sm_digest.t;
  d_identity : Sm_monoid.summary;
      (* the summary a node with no live neighbours decides against *)
  (* Private CSR copy of the live adjacency as of the last rebuild.
     [d_pos.(s)], for edge slot [s] of node [v] targeting [w], is the
     leaf position of [v] in [w]'s tree — the O(1) reverse hop that
     turns one changed node into an O(log deg) update of each
     neighbour's tree instead of an O(deg) rescan. *)
  mutable d_off : int array;
  mutable d_tgt : int array;
  mutable d_pos : int array;
  mutable d_trees : Sm_segtree.t option array; (* [None] for degree 0 *)
  mutable d_enc : int array; (* last encode pushed into the trees *)
  mutable d_version : int; (* [Graph.version] at the last rebuild *)
}

let digest_of t prog =
  {
    d_net = t;
    d_prog = prog;
    d_identity = Sm_monoid.identity prog.Sm_digest.monoid;
    d_off = [||];
    d_tgt = [||];
    d_pos = [||];
    d_trees = [||];
    d_enc = [||];
    d_version = min_int;
  }

let digest_network d = d.d_net
let digest_invalidate d = d.d_version <- min_int

(* Adapt a domain pool to [Sm_segtree]'s parallel-loop shape.  Only the
   big trees go wide (the segment tree runs its own cutoff below which
   it stays sequential), and the split is bit-identical at every pool
   size by the segment tree's contract. *)
let par_of_pool = function
  | None -> None
  | Some pool ->
      Some (fun ~n f -> Domain_pool.run pool ~n (fun _slot lo hi -> f lo hi))

(* Full rebuild: snapshot the live adjacency into a private CSR, compute
   every leaf position's reverse hop, and build one summary tree per
   live node with neighbours.  O(sum deg) plus the tree builds. *)
let digest_rebuild ?pool d =
  let t = d.d_net in
  let g = t.graph in
  let n = Array.length t.states in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let m = off.(n) in
  let tgt = Array.make (max m 1) (-1) in
  let pos = Array.make (max m 1) 0 in
  (* First pass records each [v]'s position in its own list per
     neighbour; the second pass reads the reverse entry.  (Simple
     graphs: one slot per ordered pair.) *)
  let tbl = Hashtbl.create (2 * m + 1) in
  for v = 0 to n - 1 do
    if off.(v + 1) > off.(v) then begin
      let j = ref 0 in
      Graph.iter_neighbours g v (fun w ->
          tgt.(off.(v) + !j) <- w;
          Hashtbl.replace tbl (v, w) !j;
          incr j)
    end
  done;
  for v = 0 to n - 1 do
    for s = off.(v) to off.(v + 1) - 1 do
      pos.(s) <- Hashtbl.find tbl (tgt.(s), v)
    done
  done;
  let enc = Array.make n (-1) in
  for v = 0 to n - 1 do
    if Graph.is_live_node g v then enc.(v) <- d.d_prog.Sm_digest.encode t.states.(v)
  done;
  let par = par_of_pool pool in
  let monoid = d.d_prog.Sm_digest.monoid in
  let trees = Array.make n None in
  for v = 0 to n - 1 do
    let deg = off.(v + 1) - off.(v) in
    if deg > 0 then begin
      let leaves = Array.init deg (fun j -> enc.(tgt.(off.(v) + j))) in
      trees.(v) <- Some (Sm_segtree.build ?par monoid leaves)
    end
  done;
  d.d_off <- off;
  d.d_tgt <- tgt;
  d.d_pos <- pos;
  d.d_trees <- trees;
  d.d_enc <- enc;
  d.d_version <- Graph.version g

let digest_step ?pool ?(mode = `Incr) d =
  let t = d.d_net in
  let g = t.graph in
  let n = Array.length t.states in
  ignore (ensure_next t);
  let det = d.d_prog.Sm_digest.deterministic in
  let rngs = if det then [||] else node_rngs t in
  let sp = Recorder.spans t.recorder in
  let rd = Recorder.round t.recorder in
  let rec_on = Recorder.enabled t.recorder in
  let c0 = if rec_on then Clock.now_ns () else 0 in
  (* Update phase: bring every tree in line with the current states.
     Structure drift (deletions, revivals, restore) is caught by the
     graph version; state drift (set_state, corruption faults, restore)
     by the encode sweep — the cache self-synchronizes against every
     mutation path with no hooks.  A hub of degree [d] whose one
     changed neighbour flipped pays O(log d) here, not O(d). *)
  let t0 = Span.now sp in
  (if d.d_version <> Graph.version g || mode = `Tree then digest_rebuild ?pool d
   else
     for v = 0 to n - 1 do
       if Graph.is_live_node g v then begin
         let e = d.d_prog.Sm_digest.encode t.states.(v) in
         if e <> d.d_enc.(v) then begin
           d.d_enc.(v) <- e;
           for s = d.d_off.(v) to d.d_off.(v + 1) - 1 do
             match d.d_trees.(d.d_tgt.(s)) with
             | Some tr -> Sm_segtree.set tr d.d_pos.(s) e
             | None -> ()
           done
         end
       end
     done);
  Span.record sp Span.Digest_update ~shard:0 ~round:rd ~t0;
  (* Query phase: one root read + decide per live node, mirroring
     [read_node]'s rng selection so transitions and draws are
     bit-identical to the [to_fssga] automaton under [sync_step]. *)
  let t0 = Span.now sp in
  for v = 0 to n - 1 do
    if Graph.is_live_node g v then begin
      t.activations <- t.activations + 1;
      let rng = if det then t.rng else rngs.(v) in
      let summary =
        match d.d_trees.(v) with
        | Some tr -> Sm_segtree.root_summary tr
        | None -> d.d_identity
      in
      t.next.(v) <- d.d_prog.Sm_digest.decide ~self:t.states.(v) ~rng summary
    end
  done;
  Span.record sp Span.Digest_query ~shard:0 ~round:rd ~t0;
  if rec_on then Recorder.digest_ns t.recorder ~ns:(Clock.now_ns () - c0);
  let t0 = Span.now sp in
  let any = ref false in
  for v = 0 to n - 1 do
    if Graph.is_live_node g v then if commit t v t.next.(v) then any := true
  done;
  Span.record sp Span.Commit ~shard:0 ~round:rd ~t0;
  !any
