(* serve_hammer: the serve daemon embedded in this thread over a
   resident, warmed 100,489-node shortest-paths grid.  Phase one is a
   closed loop of read-only requests (gives qps and exposes the view's
   per-source distance memo); phase two is paced on a Poisson schedule
   with the hammer's mix, in fixed proportions — 4-query batches and a
   mutation every 20th request — and gives the latency distribution,
   each request timed from the moment it was due. *)

module Prng = Symnet_prng.Prng
module Graph = Symnet_graph.Graph
module Gen = Symnet_graph.Gen
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Span = Symnet_obs.Span
module Jsonx = Symnet_obs.Jsonx
module Sp = Symnet_algorithms.Shortest_paths
module Daemon = Symnet_serve.Daemon
module Protocol = Symnet_serve.Protocol
module Wire = Symnet_serve.Wire

(* Closed-loop read-only requests, then paced requests at [rate] per
   second: well below the 200-300 requests/s the closed loop reaches,
   because queueing amplifies host noise. *)
let reads = 250
let paced = 110
let rate = 20.

(* The hammer's request mix ({!Symnet_serve.Hammer}), regenerated here
   so the benchmark knows which op each request is.  Weights are per
   hundred queries. *)
type kind =
  | Status
  | Node_state
  | Distances
  | Census
  | Components
  | Component_of
  | Bridges
  | Telemetry

let mix =
  [
    (Status, 10); (Node_state, 25); (Distances, 25); (Census, 15);
    (Components, 10); (Component_of, 10); (Bridges, 3); (Telemetry, 2);
  ]

(* Exactly [q] query kinds in the mix's proportions (largest
   remainder), shuffled by [rng].  Drawing each kind independently let
   the seed decide how many O(n) analyses a phase held, and with them
   its tail; with the counts fixed, the seed moves only the order, the
   nodes named and the arrival times. *)
let deck rng q =
  let share = List.map (fun (k, w) -> (k, w * q / 100, w * q mod 100)) mix in
  let short = q - List.fold_left (fun s (_, c, _) -> s + c) 0 share in
  let by_rest =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) share
  in
  let extra = List.filteri (fun i _ -> i < short) by_rest in
  let a =
    Array.of_list
      (List.concat_map
         (fun (k, c, _) ->
           let c = if List.exists (fun (k', _, _) -> k' = k) extra then c + 1 else c in
           List.init c (fun _ -> k))
         share)
  in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let query rng ~n kind =
  let pick_node () = Prng.int rng n in
  let pick_nodes k = List.init k (fun _ -> pick_node ()) in
  match kind with
  | Status -> Protocol.Status
  | Node_state -> Protocol.Node_state (pick_nodes 3)
  | Distances ->
      let source = pick_node () in
      Protocol.Distances { sources = [ source ]; targets = pick_nodes 3 }
  | Census -> Protocol.Census
  | Components -> Protocol.Components
  | Component_of -> Protocol.Component_of (pick_node ())
  | Bridges -> Protocol.Bridges
  | Telemetry -> Protocol.Telemetry

(* Mutations cycle kill, corrupt, revive (the node killed last), each
   on a victim drawn from [rng]. *)
let mutation rng ~n killed m =
  match (m mod 3, !killed) with
  | 0, _ ->
      let v = Prng.int rng n in
      killed := v :: !killed;
      Protocol.Kill_node v
  | 2, v :: rest ->
      killed := rest;
      Protocol.Revive_node v
  | _ -> Protocol.Corrupt (Prng.int rng n)

(* One phase's requests, generated before it starts: a mutation every
   20th request when [mutations], a 4-query batch every 7th, single
   queries otherwise. *)
let phase rng ~n ~mutations len =
  let mutates i = mutations && i mod 20 = 19 in
  let width i = if mutates i then 0 else if i mod 7 = 3 then 4 else 1 in
  let kinds = deck rng (List.fold_left ( + ) 0 (List.init len width)) in
  let next = ref 0 in
  let take () =
    let k = kinds.(!next) in
    incr next;
    Protocol.Query (query rng ~n k)
  in
  let killed = ref [] in
  Array.init len (fun i ->
      if mutates i then Protocol.Mutate (mutation rng ~n killed (i / 20))
      else if width i = 4 then Protocol.Batch (List.init 4 (fun _ -> take ()))
      else take ())

let ops =
  [
    "status"; "node_state"; "distances"; "census"; "components";
    "component_of"; "bridges"; "telemetry"; "batch"; "mutate";
  ]

let op_name = function
  | Protocol.Query Protocol.Status -> "status"
  | Protocol.Query (Protocol.Node_state _) -> "node_state"
  | Protocol.Query (Protocol.Distances _) -> "distances"
  | Protocol.Query Protocol.Census -> "census"
  | Protocol.Query Protocol.Components -> "components"
  | Protocol.Query (Protocol.Component_of _) -> "component_of"
  | Protocol.Query Protocol.Bridges -> "bridges"
  | Protocol.Query Protocol.Telemetry -> "telemetry"
  | Protocol.Batch _ -> "batch"
  | Protocol.Mutate _ -> "mutate"
  | Protocol.Shutdown -> "shutdown"

let int_member k j = Option.bind (Jsonx.member k j) Jsonx.to_int

(* A failed request counts as slower than any latency limit. *)
let fail_ms = 1e9

(* {1 The client}

   One connection, one request in flight.  While it waits for a reply
   the client ticks the daemon, as E19's pump does. *)

type client = {
  d : Sp.state Daemon.t;
  fd : Unix.file_descr;
  log : Probe.log;
  op_of : string array;  (* op of request i *)
  client_ms : float array;  (* client-side encode+write+read+decode *)
  bad : bool array;  (* request i failed a check *)
  mutable notes : string list;
  mutable last : int * int * int;  (* latest (version, epoch, round) *)
}

let fail c i fmt =
  Printf.ksprintf
    (fun note ->
      c.bad.(i) <- true;
      if List.length c.notes < 5 then c.notes <- note :: c.notes)
    fmt

let pump c i =
  let readable () =
    match Unix.select [ c.fd ] [] [] 0. with [], _, _ -> false | _ -> true
  in
  while not (readable ()) do
    let t0 = Probe.now_ns () in
    Daemon.tick c.d;
    ignore (Probe.record c.log "daemon.tick" ~tag:i ~t0)
  done

(* Every response is ok, and every snapshot stamp is at least the
   previous one in each of its three counters. *)
let rec check_response c i j =
  if Option.bind (Jsonx.member "ok" j) Jsonx.to_bool <> Some true then
    fail c i "request %d: not ok" i
  else
    match Jsonx.member "results" j with
    | Some (Jsonx.List rs) -> List.iter (check_response c i) rs
    | _ -> (
        let stamp s =
          List.map (fun k -> int_member k s) [ "version"; "epoch"; "round" ]
        in
        match Option.map stamp (Jsonx.member "snapshot" j) with
        | Some [ Some v; Some e; Some r ] ->
            let pv, pe, pr = c.last in
            if v < pv || e < pe || r < pr then fail c i "request %d: stamp went back" i;
            c.last <- (max v pv, max e pe, max r pr)
        | _ -> fail c i "request %d: missing stamp" i)

(* One framed round trip; returns its end time and the response. *)
let exchange c i req =
  c.op_of.(i) <- op_name req;
  let log = c.log in
  let t0 = Probe.now_ns () in
  let payload = Protocol.encode req in
  let t1 = Probe.record log "client.encode" ~tag:i ~t0 in
  Wire.write_frame c.fd payload;
  let t2 = Probe.record log "client.write" ~tag:i ~t0:t1 in
  pump c i;
  let t3 = Probe.record log "client.wait" ~tag:i ~t0:t2 in
  let resp = Wire.read_frame c.fd in
  let t4 = Probe.record log "client.read" ~tag:i ~t0:t3 in
  let j =
    match resp with None -> Error "connection closed" | Some s -> Jsonx.of_string s
  in
  let t5 = Probe.record log "client.decode" ~tag:i ~t0:t4 in
  c.client_ms.(i) <- Probe.ms (t2 - t0 + (t5 - t3));
  (match j with
  | Ok j -> check_response c i j
  | Error e -> fail c i "request %d: %s" i e);
  (t5, j)

(* (source, target, answer, request) for every distance answered. *)
let rec collect c answers i req j =
  match req with
  | Protocol.Query (Protocol.Distances { sources = [ s ]; _ }) -> (
      match Jsonx.member "data" j with
      | Some (Jsonx.List xs) ->
          List.iter
            (fun x ->
              match int_member "node" x with
              | Some t -> answers := (s, t, int_member "distance" x, i) :: !answers
              | None -> fail c i "request %d: bad distance" i)
            xs
      | _ -> fail c i "request %d: no distances" i)
  | Protocol.Batch rs -> (
      match Jsonx.member "results" j with
      | Some (Jsonx.List js) when List.length js = List.length rs ->
          List.iter2 (collect c answers i) rs js
      | _ -> fail c i "request %d: bad batch" i)
  | _ -> ()

(* Every answer must match a fresh BFS on the resident graph, one BFS
   per distinct source. *)
let verify_distances c graph answers =
  let n = Graph.original_size graph in
  let by_source = Hashtbl.create 64 in
  List.iter (fun ((s, _, _, _) as a) -> Hashtbl.add by_source s a) answers;
  List.iter
    (fun s ->
      let dist = Analysis.distances graph ~sources:[ s ] in
      List.iter
        (fun (_, t, got, i) ->
          let want =
            if t < 0 || t >= n || dist.(t) = max_int then None else Some dist.(t)
          in
          if got <> want then fail c i "request %d: distance %d->%d wrong" i s t)
        (Hashtbl.find_all by_source s))
    (List.sort_uniq compare (List.map (fun (s, _, _, _) -> s) answers))

(* {1 Per-layer metrics from the traced run} *)

let layers ~spans ~log ~windows ~paced_window:(p0, p1) ~op_of ~client_ms ~queue
    ~activations ~transitions ~rounds =
  let at =
    Probe.attribute ~containers:[ "daemon.tick"; "client.wait"; "round" ] ~windows
      (Probe.items_of ~spans ~log)
  in
  let self = Probe.self_ms at in
  let within (w0, w1) (s : Span.span) = s.t0_ns >= w0 && s.t0_ns + s.dur_ns <= w1 in
  let of_phase ph =
    List.filter
      (fun (s : Span.span) -> s.phase = ph && List.exists (fun w -> within w s) windows)
      (Span.spans spans)
  in
  let dur_ms (s : Span.span) = Probe.ms s.dur_ns in
  let med l = Probe.percentile 0.5 (Array.of_list l) in
  let requests = of_phase Span.Serve_request in
  (* One request in flight at a time, so the k-th request span answers
     the k-th request sent. *)
  let per_op =
    if List.length requests <> Array.length op_of then []
    else
      List.concat_map
        (fun op ->
          let ds =
            List.concat
              (List.mapi
                 (fun i s -> if op_of.(i) = op then [ dur_ms s ] else [])
                 requests)
          in
          [
            ("serve.op_ms." ^ op, med ds);
            ("serve.op_n." ^ op, float_of_int (List.length ds));
          ])
        ops
  in
  let snaps = List.map dur_ms (of_phase Span.Serve_snapshot) in
  let busy_ns =
    List.fold_left
      (fun acc (s : Span.span) -> if within (p0, p1) s then acc + s.dur_ns else acc)
      0
      (of_phase Span.Serve_request @ of_phase Span.Round)
  in
  let acts = float_of_int (max 1 activations) in
  [
    ("network.read_ms", self "read");
    ("network.commit_ms", self "commit");
    ("network.activations", float_of_int activations);
    ("network.useful_ratio", float_of_int transitions /. acts);
    ("network.ns_per_activation", (self "read" +. self "commit") *. 1e6 /. acts);
    ("serve.snapshots", float_of_int (List.length snaps));
    ("serve.snapshot_ms", med snaps);
    ( "serve.snapshot_ratio",
      float_of_int (List.length snaps) /. float_of_int (Array.length op_of) );
    ("serve.rounds", float_of_int rounds);
    ("serve.round_ms", med (List.map dur_ms (of_phase Span.Round)));
    ("serve.busy_share", float_of_int busy_ns /. float_of_int (max 1 (p1 - p0)));
    ("serve.queue_p50_ms", Probe.percentile 0.5 queue);
    ("serve.queue_tail_ms", Probe.percentile (Probe.tail_q (Array.length queue)) queue);
    ("wire.client_ms", Probe.percentile 0.5 client_ms);
  ]
  @ per_op
  @ Probe.obs_metrics at ~spans

(* {1 The workload} *)

let serve_hammer ~seed ~sub ~traced ~trace_out ~sock =
  let derive = Engine_runs.derive in
  let spans, recorder, log = Engine_runs.instruments ~traced in
  let t_setup = Probe.now_ns () in
  let side = Engine_runs.side in
  let g =
    Probe.timed log "setup.graph" ~tag:0 (fun () ->
        Gen.grid ~rows:side ~cols:side)
  in
  let n = Graph.original_size g in
  let sink = Engine_runs.corner ~seed ~sub in
  let net =
    Probe.timed log "setup.init" ~tag:0 (fun () ->
        Network.init
          ~rng:(Prng.create ~seed:(derive ~seed ~sub 2))
          g
          (Sp.automaton ~sinks:[ sink ] ~cap:n))
  in
  let graph_build_s = Probe.secs (Probe.now_ns () - t_setup) in
  let current = ref None in
  let session () =
    let s = Runner.start ~recorder ~dirty:true net in
    current := Some s;
    s
  in
  let addr = Daemon.Unix_sock sock in
  let d =
    Probe.timed log "setup.bind" ~tag:0 (fun () ->
        Daemon.create ~recorder
          ~state_json:(fun s -> Jsonx.Int (Sp.label s))
          ~session addr)
  in
  Fun.protect
    ~finally:(fun () -> Daemon.close d)
    (fun () ->
      let quiesced () =
        match !current with Some s -> Runner.session_result s <> None | None -> false
      in
      Probe.timed log "setup.warmup" ~tag:0 (fun () ->
          let budget = ref (20 * side) in
          while (not (quiesced ())) && !budget > 0 do
            Daemon.tick d;
            decr budget
          done);
      if not (quiesced ()) then failwith "serve_hammer: warm-up did not quiesce";
      Probe.timed log "setup.gc" ~tag:0 Gc.full_major;
      let setup_s = Probe.secs (Probe.now_ns () - t_setup) in
      let p1 = Probe.host_probe_child () in
      let fd = Daemon.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let total = reads + paced in
          let c =
            {
              d;
              fd;
              log;
              op_of = Array.make total "";
              client_ms = Array.make total 0.;
              bad = Array.make total false;
              notes = [];
              last = (min_int, min_int, min_int);
            }
          in
          let act0 = Network.activations net and tr0 = Network.transitions net in
          let rounds0 = Daemon.rounds_run d in
          (* Phase 1: closed loop, read-only. *)
          let closed =
            phase (Prng.create ~seed:(derive ~seed ~sub 5)) ~n ~mutations:false reads
          in
          let paced_reqs =
            phase (Prng.create ~seed:(derive ~seed ~sub 6)) ~n ~mutations:true paced
          in
          let answers = ref [] in
          let gc0 = Probe.gc_now () in
          let r0 = Probe.now_ns () in
          Array.iteri
            (fun i req ->
              match exchange c i req with
              | _, Ok j -> collect c answers i req j
              | _, Error _ -> ())
            closed;
          let r1 = Probe.now_ns () in
          let gc1 = Probe.gc_now () in
          let p2 = Probe.host_probe_child () in
          (* Phase 1 leaves the resident graph untouched. *)
          verify_distances c (Network.graph net) !answers;
          (* Phase 2: Poisson arrivals, the mix with mutations.  Latency
             runs from the due time, so a stall also bills the requests
             queued behind it. *)
          let rng_arrivals = Prng.create ~seed:(derive ~seed ~sub 7) in
          let lat = Array.make paced 0. and queue = Array.make paced 0. in
          let gc2 = Probe.gc_now () in
          let q0 = Probe.now_ns () in
          let due = ref q0 in
          for k = 0 to paced - 1 do
            let i = reads + k in
            let gap = -.Float.log (1. -. Prng.float rng_arrivals) /. rate in
            due := !due + int_of_float (gap *. 1e9);
            (* Spin to the due time, ticking the daemon only while it
               has rounds to run: a blocking wait would bill the host's
               wake-up latency to the request, and idle ticks would
               take the daemon's periodic checkpoint far more often than
               a served client does. *)
            let t_idle = Probe.now_ns () in
            while Probe.now_ns () < !due do
              if not (quiesced ()) then Daemon.tick ~timeout:0. d
            done;
            ignore (Probe.record log "daemon.idle" ~tag:i ~t0:t_idle);
            queue.(k) <- Probe.ms (Probe.now_ns () - !due);
            let t_done, _ = exchange c i paced_reqs.(k) in
            lat.(k) <- (if c.bad.(i) then fail_ms else Probe.ms (t_done - !due))
          done;
          let q1 = Probe.now_ns () in
          let gc3 = Probe.gc_now () in
          let p3 = Probe.host_probe_child () in
          let activations = Network.activations net - act0 in
          let transitions = Network.transitions net - tr0 in
          let rounds = Daemon.rounds_run d - rounds0 in
          let gc = Probe.gc_add (Probe.gc_diff gc0 gc1) (Probe.gc_diff gc2 gc3) in
          let layers =
            if not traced then []
            else
              layers ~spans ~log
                ~windows:[ (r0, r1); (q0, q1) ]
                ~paced_window:(q0, q1) ~op_of:c.op_of ~client_ms:c.client_ms
                ~queue ~activations ~transitions ~rounds
          in
          Engine_runs.finish_trace ~trace_out ~spans ~log;
          let run_s = Probe.secs (r1 - r0) in
          Jsonx.Obj
            [
              ("setup_s", Jsonx.Float setup_s);
              ("graph_build_s", Jsonx.Float graph_build_s);
              ("run_s", Jsonx.Float run_s);
              ("probe_ms", Probe.floats [ p1; p2; p3 ]);
              ("qps", Jsonx.Float (float_of_int reads /. run_s));
              ("attempted", Jsonx.Int total);
              ( "failed",
                Jsonx.Int (Array.fold_left (fun k b -> if b then k + 1 else k) 0 c.bad) );
              ("failures", Jsonx.List (List.rev_map (fun s -> Jsonx.String s) c.notes));
              ("distance_checks", Jsonx.Int (List.length !answers));
              ("rounds", Jsonx.Int rounds);
              ("activations", Jsonx.Int activations);
              ("lat_ms", Probe.floats (Array.to_list lat));
              ( "paced_ops",
                Jsonx.List
                  (List.init paced (fun k -> Jsonx.String c.op_of.(reads + k)))
              );
              ("gc", Probe.gc_json gc ~activations);
              ("layers", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) layers));
            ]))
