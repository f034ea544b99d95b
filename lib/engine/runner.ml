module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng
module Fssga = Symnet_core.Fssga
module Obs = Symnet_obs

type outcome = {
  rounds : int;
  activations : int;
  transitions : int;
  quiesced : bool;
  stopped : bool;
  gave_up : bool;
  faults_applied : int;
  faults_noop : int;
  recoveries : int;
  metrics : Obs.Metrics.snapshot option;
}

type policy =
  | Retry of { attempts : int; reseed : bool }
  | Degrade
  | Degrade_links
  | Give_up

type recovery = { policy : policy; patience : int; checkpoint_every : int }

let recovery ?(patience = 50) ?(checkpoint_every = 25) policy =
  if patience < 1 then invalid_arg "Runner.recovery: patience < 1";
  if checkpoint_every < 1 then invalid_arg "Runner.recovery: checkpoint_every < 1";
  { policy; patience; checkpoint_every }

let fault_event : Fault.action -> Obs.Events.fault_action = function
  | Fault.Kill_node v -> Obs.Events.Kill_node v
  | Fault.Kill_edge (u, v) -> Obs.Events.Kill_edge (u, v)
  | Fault.Corrupt_state v -> Obs.Events.Corrupt_state v
  | Fault.Crash_restart { node; downtime } ->
      Obs.Events.Crash_restart { node; downtime }

(* A resumable run: all the mutable run state lives in closures created
   by [start]; [step] advances by exactly one scheduler round (plus
   any watchdog/recovery action that round triggers) and [run] is a loop
   over [step] — the recursive go/watch/recover structure this replaces
   had only tail transitions, so chunking it per-round is operation-for-
   operation identical (same recorder events, same rng draws, same
   checkpoints) and the classic [run] stays bit-identical.  The step
   granularity is what lets a daemon (lib/serve) interleave query
   service with round execution on one core. *)
type 'q session = {
  sn_net : 'q Network.t;
  sn_runtime : 'q Sharded_network.t;
  sn_step : unit -> outcome option;
  sn_round : unit -> int;
  sn_result : unit -> outcome option;
}

(* The one runtime a run's synchronous rounds go through, and whose
   checkpoints its rollbacks restore: [shards] when given, else one
   shard (the flat engine, which a pool spreads by equal slices of each
   round).  A chaos spec may carry a channel-fault model; it is
   installed only when [shards] is given, keyed off a seed decorrelated
   from the node-fault streams. *)
let runtime ?rebalance_every ?shards ?chaos ~scheduler net =
  let k =
    match (shards, scheduler) with
    | None, _ -> 1
    | Some k, Scheduler.Synchronous -> k
    | Some _, _ ->
        invalid_arg "Runner.run: shards requires the synchronous scheduler"
  in
  let rt = Sharded_network.create ?rebalance_every ~shards:k net in
  (match (shards, chaos) with
  | Some _, Some c when Link.active (Chaos.link c) ->
      Sharded_network.configure_link rt
        ~seed:(Chaos.seed c lxor 0x71a6)
        (Chaos.link c)
  | _ -> ());
  rt

let start ?(scheduler = Scheduler.Synchronous) ?(dirty = true) ?(faults = [])
    ?chaos ?corrupt ?recovery ?(max_rounds = 100_000)
    ?(recorder = Obs.Recorder.null) ?pool ?shards ?rebalance_every ?stop
    ?on_round net =
  let rt = runtime ?rebalance_every ?shards ?chaos ~scheduler net in
  let g = Network.graph net in
  let automaton = Network.automaton net in
  Network.set_recorder net recorder;
  (* Profiling spans for the runner's own phases (fault application,
     checkpoints, recoveries); [Obs.Span.null] unless the recorder was
     created with a live collector, in which case every bracket below is
     two clock reads and five int stores. *)
  let sp = Obs.Recorder.spans recorder in
  Obs.Recorder.run_start recorder ~nodes:(Graph.node_count g)
    ~edges:(Graph.edge_count g) ~scheduler:(Scheduler.name scheduler);
  (* All fault-side randomness (victim picks inside [chaos], corruption
     values below) is keyed splitting off generators built from one seed,
     never the network's advancing stream: faults land identically at
     every domain count and replay identically after a rollback. *)
  let chaos_seed = match chaos with Some c -> Chaos.seed c | None -> 0x5eed in
  let corrupt_base = Prng.create ~seed:(chaos_seed lxor 0x7a05) in
  let corrupt_fn =
    match corrupt with
    | Some f -> f
    | None -> fun _rng _net v -> automaton.Fssga.init g v
  in
  (* Run state a rollback must rewind: the network itself is covered by
     Network.checkpoint; the schedule tail and pending revivals are ours. *)
  let pending = ref faults in
  let restarts = ref ([] : (int * int) list) (* (due round, node) *) in
  let dirty_now = ref dirty in
  let faults_applied = ref 0 in
  let faults_noop = ref 0 in
  let recoveries = ref 0 in
  let apply_state round v =
    if Graph.is_live_node g v then begin
      let rng =
        Prng.split_key (Prng.split_key corrupt_base ~key:round) ~key:v
      in
      Network.set_state net v (corrupt_fn rng net v);
      true
    end
    else false
  in
  (* Revive nodes whose downtime has elapsed: back in the start state,
     with their surviving incident edges (see Graph.revive_node).  Runs
     before fault application, so a node crashed again the same round
     stays down. *)
  let apply_restarts round =
    let due, still = List.partition (fun (r, _) -> r <= round) !restarts in
    restarts := still;
    List.iter
      (fun (_, v) ->
        Graph.revive_node g v;
        Network.set_state net v (automaton.Fssga.init g v);
        Obs.Recorder.fault recorder ~action:(Obs.Events.Restart_node v))
      due
  in
  (* Mark every due fault's neighbourhood before any of them lands. *)
  let mark_due_faults_dirty round =
    if Network.dirty_tracking net then
      List.iter
        (fun e ->
          if e.Fault.at_round <= round then
            Fault.mark_before net e.Fault.action)
        !pending
  in
  let chaos_pending_possible round =
    match chaos with None -> false | Some c -> not (Chaos.exhausted c ~round)
  in
  (* Recovery machinery.  The checkpoint tuple carries everything the
     rollback needs: the network snapshot plus the runner-level schedule
     state at the end of the checkpointed round. *)
  let cp = ref None in
  let attempts_used = ref 0 in
  let degraded = ref false in
  let best_delta = ref max_int in
  let stall = ref 0 in
  let trans_before = ref (Network.transitions net) in
  let take_checkpoint round =
    let t0 = Obs.Span.now sp in
    cp := Some (round, Sharded_network.checkpoint rt, !pending, !restarts);
    Obs.Span.record sp Obs.Span.Checkpoint ~shard:0 ~round ~t0;
    Obs.Recorder.checkpoint recorder ~round
  in
  (match recovery with Some _ -> take_checkpoint 0 | None -> ());
  let result = ref None in
  let next_round = ref 1 in
  let finish ~round ~quiesced ~stopped ~gave_up =
    (* The session's runtime is dropped with its channels: an update
       still in flight leaves its readers clean against a stale ghost,
       and its delivery would have woken them.  The marking ghost pass
       wakes them now, for whichever session steps this network next. *)
    if Option.is_some (Sharded_network.link_runtime rt) then
      Sharded_network.resync rt;
    let reason =
      if gave_up then "gave_up"
      else if stopped then "stopped"
      else if quiesced then "quiesced"
      else "budget"
    in
    Obs.Recorder.run_end recorder ~round ~reason;
    result :=
      Some
        {
          rounds = round;
          activations = Network.activations net;
          transitions = Network.transitions net;
          quiesced;
          stopped;
          gave_up;
          faults_applied = !faults_applied;
          faults_noop = !faults_noop;
          recoveries = !recoveries;
          metrics = Obs.Recorder.snapshot recorder;
        }
  in
  (* The progress watchdog: livelock/divergence shows up as a per-round
     transition count that stops decreasing while staying positive (a
     converging run trends towards 0).  [patience] rounds without a new
     minimum trip the recovery policy. *)
  let watchdog_tripped r round =
    let trans_now = Network.transitions net in
    let delta = trans_now - !trans_before in
    trans_before := trans_now;
    if delta < !best_delta then begin
      best_delta := delta;
      stall := 0;
      (* Checkpoint only on progress, so we never save (and retry from) a
         state the watchdog already distrusts. *)
      if round mod r.checkpoint_every = 0 then take_checkpoint round
    end
    else incr stall;
    delta > 0 && !stall >= r.patience
  in
  let recover r round =
    let t0 = Obs.Span.now sp in
    let recovery_span () =
      Obs.Span.record sp Obs.Span.Recovery ~shard:0 ~round ~t0
    in
    let give_up () =
      incr recoveries;
      recovery_span ();
      Obs.Recorder.recovery recorder ~round ~attempt:!attempts_used
        ~action:"give_up";
      finish ~round ~quiesced:false ~stopped:false ~gave_up:true
    in
    match r.policy with
    | Give_up -> give_up ()
    | Degrade_links -> (
        (* Quarantine the channels still holding traffic (the fault
           pipeline releases them), then resync ghosts from the flat
           authority so nothing is lost with the dropped in-flight data.
           A second trip with nothing left to quarantine gives up. *)
        let quarantined =
          match Sharded_network.link_runtime rt with
          | Some lk ->
              let q = Link.quarantine_stalled lk in
              if q <> [] then Sharded_network.resync rt;
              q
          | None -> []
        in
        match quarantined with
        | [] -> give_up ()
        | q ->
            incr recoveries;
            best_delta := max_int;
            stall := 0;
            recovery_span ();
            Obs.Recorder.recovery recorder ~round ~attempt:(List.length q)
              ~action:"degrade_links";
            next_round := round + 1)
    | Degrade ->
        if !degraded then give_up ()
        else begin
          degraded := true;
          dirty_now := false;
          incr recoveries;
          best_delta := max_int;
          stall := 0;
          recovery_span ();
          Obs.Recorder.recovery recorder ~round ~attempt:0 ~action:"degrade";
          next_round := round + 1
        end
    | Retry { attempts; reseed } -> (
        match !cp with
        | Some (cp_round, snap, cp_pending, cp_restarts)
          when !attempts_used < attempts ->
            incr attempts_used;
            incr recoveries;
            Sharded_network.restore rt snap;
            pending := cp_pending;
            restarts := cp_restarts;
            if reseed then
              Network.reseed net
                (Prng.create ~seed:(chaos_seed + (104729 * !attempts_used)));
            trans_before := Network.transitions net;
            best_delta := max_int;
            stall := 0;
            recovery_span ();
            Obs.Recorder.recovery recorder ~round ~attempt:!attempts_used
              ~action:(if reseed then "reseed" else "rollback");
            next_round := cp_round + 1
        | _ -> give_up ())
  in
  let exec_round round =
    begin
      Obs.Recorder.round_start recorder ~round;
      (* Mutations made behind the engine's back (e.g. from an [on_round]
         callback) first invalidate the whole dirty set, so the ack below
         cannot swallow them. *)
      if Network.dirty_tracking net then Network.reconcile_graph net;
      (* Time the fault pipeline only when it has candidate work, so
         fault-free profiled rounds don't drown the trace in empty
         fault_apply slivers. *)
      let fault_work =
        Obs.Span.enabled sp
        && ((match !pending with [] -> false | _ -> true)
           || (match !restarts with [] -> false | _ -> true)
           || Option.is_some chaos)
      in
      let fault_t0 = if fault_work then Obs.Span.now sp else 0 in
      apply_restarts round;
      (match chaos with
      | Some c ->
          let events =
            List.map
              (fun action -> { Fault.at_round = round; action })
              (Chaos.actions_due c ~round g)
          in
          pending := !pending @ events
      | None -> ());
      mark_due_faults_dirty round;
      pending :=
        Fault.apply_due !pending ~round g ~apply_state:(apply_state round)
          ~on_apply:(fun a ~effective ->
            if effective then incr faults_applied else incr faults_noop;
            Obs.Recorder.fault recorder ~effective ~action:(fault_event a);
            match a with
            | Fault.Crash_restart { node; downtime } when effective ->
                restarts := (round + downtime + 1, node) :: !restarts
            | _ -> ());
      if Network.dirty_tracking net then Network.ack_graph_mutations net;
      if fault_work then
        Obs.Span.record sp Obs.Span.Fault_apply ~shard:0 ~round ~t0:fault_t0;
      let changed =
        Scheduler.round ?pool ~dirty:!dirty_now ~sharded:rt scheduler net ~round
      in
      Obs.Recorder.round_end recorder ~round ~changed;
      (match on_round with Some f -> f ~round net | None -> ());
      let stop_now = match stop with Some f -> f ~round net | None -> false in
      if stop_now then
        finish ~round ~quiesced:false ~stopped:true ~gave_up:false
      else if
        (not changed)
        && !pending = []
        && !restarts = []
        && not (chaos_pending_possible round)
      then finish ~round ~quiesced:true ~stopped:false ~gave_up:false
      else
        match recovery with
        | None -> next_round := round + 1
        | Some r ->
            if watchdog_tripped r round then recover r round
            else next_round := round + 1
    end
  in
  let step () =
    (match !result with
    | Some _ -> ()
    | None ->
        let round = !next_round in
        if round > max_rounds then
          finish ~round:max_rounds ~quiesced:false ~stopped:false
            ~gave_up:false
        else exec_round round);
    !result
  in
  {
    sn_net = net;
    sn_runtime = rt;
    sn_step = step;
    sn_round = (fun () -> !next_round);
    sn_result = (fun () -> !result);
  }

let step s = s.sn_step ()
let session_net s = s.sn_net
let session_runtime s = s.sn_runtime
let session_round s = s.sn_round ()
let session_result s = s.sn_result ()

let finish s =
  let rec go () = match s.sn_step () with Some o -> o | None -> go () in
  go ()

let run ?(scheduler = Scheduler.Synchronous) ?(dirty = true) ?(faults = [])
    ?chaos ?corrupt ?recovery ?(max_rounds = 100_000)
    ?(recorder = Obs.Recorder.null) ?pool ?(domains = 1) ?shards
    ?rebalance_every ?stop ?on_round net =
  let run_with ?pool () =
    finish
      (start ~scheduler ~dirty ~faults ?chaos ?corrupt ?recovery ~max_rounds
         ~recorder ?pool ?shards ?rebalance_every ?stop ?on_round net)
  in
  match pool with
  | Some _ -> run_with ?pool ()
  | None ->
      let domains = if domains = 0 then Domain_pool.recommended () else domains in
      if domains <= 1 then run_with ()
      else Domain_pool.with_pool ~domains (fun pool -> run_with ~pool ())
