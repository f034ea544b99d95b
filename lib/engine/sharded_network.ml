(* The synchronous runtime: K partition shards over one flat network,
   with cross-shard state propagation through explicit message queues.
   K = 1 is the flat engine: one shard, no ghosts, no exchange.

   Round protocol (one [step]):
     1. resync  — if the flat engine's state epoch moved since our last
                  commit (faults, [set_state], [restore]), refresh every
                  shard's ghosts from the flat array;
     2. rebalance — optionally recut the partition on frontier imbalance;
     3. read    — each shard steps its live (dirty) nodes against the
                  frozen snapshot — its owned slice of the flat array
                  plus its ghosts — in parallel over the pool;
     4. commit  — changed states are written once to the flat array (the
                  authority, whose owned slice is the shard's state) and
                  enqueued towards every peer holding a ghost of the node;
     5. exchange — each destination drains its inboxes in ascending
                  (source shard, sequence) order into its ghosts.

   Determinism: a node's view is a pure function of last round's
   committed states — the flat array for owned neighbours (no commit
   runs during a read phase), ghosts (exactly last round's exchanged
   values) for remote ones — so every (shards, domains) combination
   computes the same round as [Network.sync_step], bit for bit:
   states, change flags, counters, probabilistic draws (same per-node
   streams) and, with a recorder attached, the same telemetry bytes
   (the commit phase then runs sequentially in ascending node order).
   The partition is invisible to results, which is what makes the
   rebalance hook safe. *)

module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Fssga = Symnet_core.Fssga
module Recorder = Symnet_obs.Recorder
module Span = Symnet_obs.Span
module Clock = Symnet_obs.Clock

type 'q t = {
  net : 'q Network.t;
  csr : Graph.csr;
  k : int;
  mutable shards : 'q Shard.t array;
  mutable boundaries : int array;  (* k + 1 entries, 0 .. n *)
  mutable seen_epoch : int;
  rebalance_every : int;  (* 0 = never *)
  imbalance : float;  (* rebalance when max/mean frontier exceeds this *)
  mutable rounds : int;
  (* adversarial link layer (None = direct drain, the default) *)
  mutable link : 'q Link.t option;
  mutable link_round : int;
      (* the round counter the link layer keys its fault draws on —
         saved in checkpoints so a rollback replays the same faults *)
  mutable ghost_woke : bool;
      (* set by a linked exchange whose delivery changed a ghost *)
  mutable bridge_pairs : (int * int) list;
      (* endpoints of bridge edges, for target=cut channel selection *)
  (* cumulative phase time (always measured — a handful of clock reads
     per round — so exchange share is reportable without a recorder) *)
  mutable read_ns : int;
  mutable commit_ns : int;
  mutable exchange_ns : int;
  mutable messages : int;
  per_dst : int array;  (* per-destination drain counts, reused *)
}

(* Owner shard of a global node id under the current boundaries. *)
let owner t v =
  let lo = ref 0 and hi = ref t.k in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.boundaries.(mid) <= v then lo := mid else hi := mid
  done;
  !lo

(* Channels crossing a bridge edge, under the current partition. *)
let refresh_cut t =
  match t.link with
  | None -> ()
  | Some lk ->
      let pairs =
        List.concat_map
          (fun (u, v) ->
            let su = owner t u and sv = owner t v in
            if su = sv then [] else [ (su, sv); (sv, su) ])
          t.bridge_pairs
        |> List.sort_uniq compare
      in
      Link.set_cut lk pairs

let layout t boundaries =
  t.boundaries <- boundaries;
  t.shards <- Shard.build ~net:t.net ~boundaries;
  (* the partition moved: ghost slots changed, so any in-flight link
     traffic is meaningless — drop it (ghosts were just rebuilt from the
     authoritative flat states) and remap the cut channels *)
  Option.iter Link.reset t.link;
  refresh_cut t

let equal_boundaries ~n ~k = Array.init (k + 1) (fun i -> i * n / k)

let create ?(rebalance_every = 0) ?(imbalance = 2.0) ~shards:k net =
  if k < 1 then invalid_arg "Sharded_network.create: shards >= 1 required";
  if rebalance_every < 0 then
    invalid_arg "Sharded_network.create: negative rebalance interval";
  let n = Graph.original_size (Network.graph net) in
  let t =
    {
      net;
      csr = Graph.csr (Network.graph net);
      k;
      shards = [||];
      boundaries = [||];
      seen_epoch = Network.state_epoch net;
      rebalance_every;
      imbalance;
      rounds = 0;
      link = None;
      link_round = 0;
      ghost_woke = false;
      bridge_pairs = [];
      read_ns = 0;
      commit_ns = 0;
      exchange_ns = 0;
      messages = 0;
      per_dst = Array.make k 0;
    }
  in
  layout t (equal_boundaries ~n ~k);
  t

let resync t =
  (* in-flight link traffic is about to be dropped: every ghost the pass
     moves may have had its update among it, so wake its readers (an
     unlinked run's ghosts are exact, and the writes that moved the epoch
     marked their own neighbourhoods) *)
  let mark = Option.is_some t.link in
  for s = 0 to t.k - 1 do
    Shard.resync t.shards.(s) ~mark
  done;
  (* ghosts are fresh copies of the authority again: in-flight link
     traffic is redundant, so restart the channels *)
  Option.iter Link.reset t.link;
  t.seen_epoch <- Network.state_epoch t.net

let configure_link t ~seed spec =
  if not (Link.active spec) then t.link <- None
  else begin
    let lk = Link.create ~seed ~shards:t.k spec in
    t.link <- Some lk;
    (* bridge endpoints only matter for target=cut faults, but they are
       one DFS to compute and stable under liveness-free runs — derive
       them once here, remap to shard pairs on every layout change *)
    t.bridge_pairs <-
      (if
         List.exists
           (fun (f : Link.fault) -> f.Link.target = Link.Cut_channels)
           spec.Link.faults
       then
         let g = Network.graph t.net in
         List.map
           (fun eid ->
             let e = Graph.edge g eid in
             (e.Graph.u, e.Graph.v))
           (Analysis.bridges g)
       else []);
    refresh_cut t
  end

let link_runtime t = t.link

(* --- rebalancing ------------------------------------------------------- *)

(* Recut the partition so each shard carries an equal share of the
   current load: a live dirty node (likely to step next round) weighs 4,
   a live clean node 1, a dead node 0.  Boundaries are the weight
   quantiles, so a hot region is split across more shards.  Rebuilding
   from the flat array (authoritative between rounds) keeps results
   untouched — only the work assignment moves. *)
let rebalance t =
  let n = Graph.original_size (Network.graph t.net) in
  let dirty = Network.raw_dirty t.net in
  let use_dirty = Array.length dirty > 0 in
  let alive = t.csr.Graph.csr_node_alive in
  let weight v =
    if not alive.(v) then 0 else if use_dirty && dirty.(v) then 4 else 1
  in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + weight v
  done;
  if !total > 0 then begin
    let nb = Array.make (t.k + 1) 0 in
    nb.(t.k) <- n;
    let v = ref 0 and acc = ref 0 in
    for s = 1 to t.k - 1 do
      let target = s * !total / t.k in
      while !acc < target && !v < n do
        acc := !acc + weight !v;
        incr v
      done;
      nb.(s) <- !v
    done;
    if nb <> t.boundaries then begin
      (* the new layout drops in-flight link traffic, and a dropped
         update is a lost wake-up: readers that stepped against the
         stale ghost went clean, and its delivery would have re-marked
         them.  So a linked run first runs the resync ghost pass over
         the old shards, which marks the neighbourhood of every ghost
         that differs from the authority (unlinked ghosts are exact) *)
      if Option.is_some t.link then
        Array.iter (fun sh -> Shard.resync sh ~mark:true) t.shards;
      layout t nb
    end
  end

let maybe_rebalance t =
  if
    t.rebalance_every > 0 && t.rounds > 0
    && t.rounds mod t.rebalance_every = 0
  then begin
    let max_f = ref 0 and sum = ref 0 in
    Array.iter
      (fun sh ->
        let f = Shard.stepped sh in
        if f > !max_f then max_f := f;
        sum := !sum + f)
      t.shards;
    let mean = float_of_int !sum /. float_of_int t.k in
    if mean > 0. && float_of_int !max_f > t.imbalance *. mean then rebalance t
  end

(* --- one synchronous round --------------------------------------------- *)

(* The round's phases are top-level functions taking what they need as
   arguments: a local closure capturing the round's context would be
   allocated on every round, and a dirty round with no pool, recorder or
   link must allocate nothing. *)

(* First position in [front.(first .. stop-1)] (ascending) holding an
   id >= [bound]. *)
let lower_bound (front : int array) ~first ~stop bound =
  let a = ref first and b = ref stop in
  while !a < !b do
    let m = (!a + !b) lsr 1 in
    if front.(m) < bound then a := m + 1 else b := m
  done;
  !a

(* Take the dirty frontier and hand each shard its contiguous slice,
   cut at the shard boundaries; returns the frontier's size. *)
let load_frontier t =
  let net = t.net in
  Network.ensure_dirty_tracking net;
  Network.reconcile_graph net;
  let f = Network.take_frontier net in
  let front = Network.raw_frontier net in
  let p = ref 0 in
  for s = 0 to t.k - 1 do
    let sh = t.shards.(s) in
    let stop = lower_bound front ~first:!p ~stop:f (Shard.hi sh) in
    Shard.load_slice sh ~first:!p ~stop;
    p := stop
  done;
  f

(* A lone shard's read is the flat engine's read phase, and is timed as
   one; on a pool it splits. *)
let read_shard ?pool t ~aut ~det ~shared_rng ~rngs ~next ~sp ~rd s =
  let t0 = Span.now sp in
  Shard.read ?pool t.shards.(s) ~aut ~det ~shared_rng ~rngs ~next;
  Span.record sp
    (if t.k = 1 then Span.Read else Span.Shard_read)
    ~shard:s ~round:rd ~t0

let commit_shards t ~next lo hi =
  for s = lo to hi - 1 do
    Shard.commit t.shards.(s) ~next
  done

let drain_dst t ~sp ~rd d =
  let t0 = Span.now sp in
  t.per_dst.(d) <- Shard.drain t.shards d;
  Span.record sp Span.Shard_exchange ~shard:d ~round:rd ~t0

(* One linked channel's round: hand the outbox from [s] to [d] to the
   link layer as a batch and apply what it delivers.  A late
   (retransmitted/delayed) delivery that changes a ghost sets
   [ghost_woke]: that can happen on a round with no local transitions,
   and the next round will transition — so it must count as activity or
   the run quiesces one round early with the update unread. *)
let exchange_channel t lk ~dirty ~recorder ~s ~d =
  let net = t.net and ssh = t.shards.(s) and dsh = t.shards.(d) in
  let len = Shard.outbox_len ssh ~dst:d in
  let batch =
    List.init len (fun i ->
        (Shard.outbox_slot ssh ~dst:d i, Shard.outbox_state ssh ~dst:d i))
  in
  Shard.outbox_clear ssh ~dst:d;
  let deliver ~slot ~state =
    let changed = Shard.deliver dsh ~slot ~state in
    if changed then t.ghost_woke <- true;
    (* a late delivery that changes a ghost lands after the commit
       phase already marked this round's changed neighbourhoods:
       re-mark the ghost's surroundings or its readers would stay
       clean with a stale view *)
    if changed && dirty then
      Network.mark_dirty_around net (Shard.ghost_global dsh slot)
  in
  Link.exchange lk ~round:t.link_round ~src:s ~dst:d ~batch ~deliver ~recorder

(* With a link runtime the exchange runs the fault/retry pipeline
   instead of the direct drain.  Always sequential, destination- then
   source-ascending on one domain: the link layer's event stream and
   counters must not depend on drain interleaving (chaos runs are about
   determinism, not exchange throughput).  An idle channel (empty
   outbox, nothing in flight) would draw and deliver nothing, so it is
   skipped before any batch, closure or keyed split is made: a round
   pays for its traffic, plus a constant per channel.  Returns whether a
   late delivery changed a ghost. *)
let exchange_link t lk ~dirty ~recorder ~sp ~rd =
  let shards = t.shards in
  t.ghost_woke <- false;
  for d = 0 to t.k - 1 do
    let t0 = Span.now sp in
    let delivered = ref 0 in
    for s = 0 to t.k - 1 do
      if
        s <> d
        && (Shard.outbox_len shards.(s) ~dst:d > 0
           || Link.channel_busy lk ~src:s ~dst:d)
      then
        delivered :=
          !delivered + exchange_channel t lk ~dirty ~recorder ~s ~d
    done;
    t.per_dst.(d) <- !delivered;
    Span.record sp Span.Link_exchange ~shard:d ~round:rd ~t0
  done;
  t.ghost_woke

(* The exchange phase, begun at clock reading [c0]: drain inboxes in
   (source shard, seq) order per destination (destinations are
   independent, so this parallelizes), or run the link layer's
   pipeline.  Returns whether the round must count as active for the
   link's sake: the run must not quiesce while a channel still owes
   deliveries or retransmits, nor on the round a late delivery just
   changed a ghost. *)
let exchange t ~par ~dirty ~recorder ~sp ~rd ~c0 =
  let busy =
    match t.link with
    | Some lk ->
        t.link_round <- t.link_round + 1;
        let woke = exchange_link t lk ~dirty ~recorder ~sp ~rd in
        Link.busy lk || woke
    | None ->
        (match par with
        | Some pool ->
            Domain_pool.run pool ~n:t.k (fun _slot lo hi ->
                for d = lo to hi - 1 do
                  drain_dst t ~sp ~rd d
                done)
        | None ->
            for d = 0 to t.k - 1 do
              drain_dst t ~sp ~rd d
            done);
        false
  in
  for d = 0 to t.k - 1 do
    t.messages <- t.messages + t.per_dst.(d)
  done;
  let c1 = Clock.now_ns () in
  t.exchange_ns <- t.exchange_ns + (c1 - c0);
  if Recorder.enabled recorder then Recorder.exchange_ns recorder ~ns:(c1 - c0);
  busy

let step ?pool ?(dirty = false) t =
  let net = t.net in
  let recorder = Network.recorder net in
  let sp = Recorder.spans recorder in
  let rd = Recorder.round recorder in
  let rec_on = Recorder.enabled recorder in
  (* a lone shard has no ghosts to resync *)
  if t.k > 1 && Network.state_epoch net <> t.seen_epoch then begin
    let t0 = Span.now sp in
    resync t;
    Span.record sp Span.Shard_resync ~shard:0 ~round:rd ~t0
  end;
  maybe_rebalance t;
  let aut = Network.automaton net in
  let det = Fssga.is_deterministic aut in
  let shared_rng = Network.rng net in
  let rngs = if det then [||] else Network.raw_node_rngs net in
  (* the commit buffer is allocated at its first use: fetch it here,
     before shards on other domains fill it *)
  let next = Network.raw_next net in
  let k = t.k in
  let shards = t.shards in
  let c0 = Clock.now_ns () in
  (* frontier: the flags are consumed here (cleared as the frontier is
     taken), so commit-phase re-marks of changed neighbourhoods are never
     lost *)
  let work =
    if dirty then begin
      let t0 = Span.now sp in
      let f = load_frontier t in
      Span.record sp Span.Frontier ~shard:0 ~round:rd ~t0;
      f
    end
    else begin
      Array.iter Shard.load_live shards;
      Array.length (Network.raw_states net)
    end
  in
  (* a round that steps fewer than [par_cutoff] positions runs on the
     calling domain: its work would not pay for the hand-offs *)
  let par =
    match pool with
    | Some p when Domain_pool.size p > 1 && work >= Network.par_cutoff net ->
        Some p
    | _ -> None
  in
  (* read: shard-local, frozen snapshot, parallel over the pool *)
  (match par with
  | Some pool when k > 1 ->
      Domain_pool.run pool ~n:k (fun _slot lo hi ->
          for s = lo to hi - 1 do
            read_shard t ~aut ~det ~shared_rng ~rngs ~next ~sp ~rd s
          done)
  | _ ->
      for s = 0 to k - 1 do
        read_shard ?pool:par t ~aut ~det ~shared_rng ~rngs ~next ~sp ~rd s
      done);
  let stepped = ref 0 in
  for s = 0 to k - 1 do
    stepped := !stepped + Shard.stepped shards.(s)
  done;
  Network.add_activations net !stepped;
  if dirty then Recorder.frontier recorder ~size:!stepped;
  let c1 = Clock.now_ns () in
  t.read_ns <- t.read_ns + (c1 - c0);
  (* commit: to the flat array (the authority) and the outboxes; with a
     recorder, sequential in shard- then node-ascending order = flat
     ascending order, so the activation stream is byte-identical *)
  (match par with
  | Some pool when not rec_on && k = 1 -> Shard.commit ~pool shards.(0) ~next
  | Some pool when not rec_on ->
      Network.commit_parallel net pool ~n:k (fun _slot lo hi ->
          commit_shards t ~next lo hi)
  | _ ->
      let t0 = Span.now sp in
      commit_shards t ~next 0 k;
      Span.record sp Span.Commit ~shard:0 ~round:rd ~t0);
  let ch = ref 0 in
  for s = 0 to k - 1 do
    ch := !ch + Shard.last_committed shards.(s)
  done;
  Network.add_transitions net !ch;
  let c2 = Clock.now_ns () in
  t.commit_ns <- t.commit_ns + (c2 - c1);
  (* a lone shard has nothing to exchange *)
  let busy = k > 1 && exchange t ~par ~dirty ~recorder ~sp ~rd ~c0:c2 in
  t.rounds <- t.rounds + 1;
  t.seen_epoch <- Network.state_epoch net;
  !ch > 0 || busy

(* --- checkpoint / restore ---------------------------------------------- *)

type 'q checkpoint = {
  sc_net : 'q Network.checkpoint;
  sc_boundaries : int array;
  sc_shards : 'q Shard.snap array;
  sc_rounds : int;
  sc_link_round : int;
}

let checkpoint t =
  {
    sc_net = Network.checkpoint t.net;
    sc_boundaries = Array.copy t.boundaries;
    sc_shards = Array.map Shard.snapshot t.shards;
    sc_rounds = t.rounds;
    sc_link_round = t.link_round;
  }

(* A restore is a pure function of the checkpoint: the partition, the
   ghosts, the stepped counts and round count the rebalance policy
   reads, and the link clock all come back as they were, whichever
   partition the run had moved to since. *)
let restore t cp =
  Network.restore t.net cp.sc_net;
  (* the partition moved since the checkpoint (rebalance): lay out the
     checkpoint's, whose shards the snapshots fit *)
  if cp.sc_boundaries <> t.boundaries then layout t (Array.copy cp.sc_boundaries);
  Array.iteri (fun i sh -> Shard.restore_snap sh cp.sc_shards.(i)) t.shards;
  t.rounds <- cp.sc_rounds;
  (* rewind the fault clock and clear the channels: replaying the same
     rounds re-derives the same link faults (rollback stability) *)
  t.link_round <- cp.sc_link_round;
  Option.iter Link.reset t.link;
  (* the checkpoint's ghosts can be stale by updates that were in
     flight when it was taken and that the reset just dropped: as in
     [resync], refresh them and wake their readers *)
  if Option.is_some t.link then
    Array.iter (fun sh -> Shard.resync sh ~mark:true) t.shards;
  t.seen_epoch <- Network.state_epoch t.net

(* --- accessors --------------------------------------------------------- *)

let messages t = t.messages

let exchange_share t =
  let total = t.read_ns + t.commit_ns + t.exchange_ns in
  if total = 0 then 0. else float_of_int t.exchange_ns /. float_of_int total

type shard_stats = {
  ss_id : int;
  ss_lo : int;
  ss_hi : int;
  ss_ghosts : int;
  ss_stepped : int;
  ss_transitions : int;
  ss_msgs_out : int;
}

let shard_stats t =
  Array.map
    (fun sh ->
      {
        ss_id = Shard.id sh;
        ss_lo = Shard.lo sh;
        ss_hi = Shard.hi sh;
        ss_ghosts = Shard.ghost_count sh;
        ss_stepped = Shard.stepped sh;
        ss_transitions = Shard.last_committed sh;
        ss_msgs_out = Shard.msgs_out sh;
      })
    t.shards
