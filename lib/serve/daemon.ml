module Graph = Symnet_graph.Graph
module Analysis = Symnet_graph.Analysis
module Network = Symnet_engine.Network
module Runner = Symnet_engine.Runner
module Fault = Symnet_engine.Fault
module Fssga = Symnet_core.Fssga
module Obs = Symnet_obs
module Jsonx = Symnet_obs.Jsonx

type address = Unix_sock of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Ok (Unix_sock (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j -> (
          let host = String.sub rest 0 j in
          match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
          | Some port -> Ok (Tcp ((if host = "" then "127.0.0.1" else host), port))
          | None -> Error (Printf.sprintf "bad port in %S" s))
      | None -> Error (Printf.sprintf "tcp address %S needs host:port" s))
  | _ -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let connect addr =
  let domain = match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e -> Unix.close fd; raise e);
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix_sock _ -> ());
  fd

(* One client connection: non-blocking fd, an incremental frame decoder
   on the read side, and a bounded outbound byte buffer on the write
   side.  [c_last] is the time of the last I/O progress — connections
   stuck mid-frame (either direction) past the deadline are evicted. *)
type conn = {
  c_fd : Unix.file_descr;
  c_dec : Wire.decoder;
  mutable c_out : Bytes.t;  (* unwritten outbound bytes *)
  mutable c_opos : int;  (* consumed prefix of [c_out] *)
  mutable c_last : float;
}

type 'q t = {
  d_net : 'q Network.t;
  d_state_json : 'q -> Jsonx.t;
  d_recorder : Obs.Recorder.t;
  d_mk_session : unit -> 'q Runner.session;
  mutable d_session : 'q Runner.session;
  mutable d_view : 'q View.t option;  (* refreshed in place when stale *)
  d_landmarks : Analysis.landmarks Lazy.t;
      (* built by the first distance query; the graph's structure never
         changes, so every view shares it *)
  mutable d_running : bool;
  mutable d_clients : conn list;
  d_listen : Unix.file_descr;
  d_addr : address;
  d_rounds_per_tick : int;
  d_read_deadline : float;  (* seconds a partial read/write may stall *)
  d_write_buf_limit : int;  (* outbound bytes before slow-reader eviction *)
  mutable d_rounds_run : int;
      (* cumulative across session restarts; the [round] stamp queries see *)
  mutable d_requests : int;
  mutable d_ticks : int;
  (* supervision: a periodic network checkpoint the supervisor loop can
     restart the serve core from after a crash, refreshed in place *)
  mutable d_checkpoint : 'q Network.checkpoint option;
  mutable d_restarts : int;
  d_read_buf : Bytes.t;
      (* every connection's reads land here; [Wire.feed] copies them out *)
}

let create ?(recorder = Obs.Recorder.null) ?(rounds_per_tick = 1)
    ?(read_deadline = 30.) ?(write_buf_limit = 4 * 1024 * 1024) ~state_json
    ~session addr =
  if rounds_per_tick < 1 then
    invalid_arg "Daemon.create: rounds_per_tick must be >= 1";
  if read_deadline <= 0. then
    invalid_arg "Daemon.create: read_deadline must be positive";
  if write_buf_limit < 1 then
    invalid_arg "Daemon.create: write_buf_limit must be positive";
  (* A client dropping mid-response must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let domain =
    match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let listen = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt listen Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind listen (sockaddr_of addr);
     Unix.listen listen 64
   with e ->
     Unix.close listen;
     raise e);
  let s = session () in
  let net = Runner.session_net s in
  {
    d_net = net;
    d_state_json = state_json;
    d_recorder = recorder;
    d_mk_session = session;
    d_session = s;
    d_view = None;
    d_landmarks = lazy (Analysis.landmarks (Network.graph net));
    d_running = true;
    d_clients = [];
    d_listen = listen;
    d_addr = addr;
    d_rounds_per_tick = rounds_per_tick;
    d_read_deadline = read_deadline;
    d_write_buf_limit = write_buf_limit;
    d_rounds_run = 0;
    d_requests = 0;
    d_ticks = 0;
    d_checkpoint = None;
    d_restarts = 0;
    d_read_buf = Bytes.create 65536;
  }

let requests_served d = d.d_requests
let rounds_run d = d.d_rounds_run
let restarts d = d.d_restarts

let landmarks d =
  if Lazy.is_val d.d_landmarks then Some (Lazy.force d.d_landmarks) else None

(* --- query evaluation -------------------------------------------------- *)

(* The daemon's one view, refreshed in place when stale: it is read
   only while fresh, so nothing holds a stale one. *)
let view d =
  match d.d_view with
  | Some v when View.fresh v d.d_net -> v
  | cur ->
      let sp = Obs.Recorder.spans d.d_recorder in
      let t0 = Obs.Span.now sp in
      let round = d.d_rounds_run in
      let v =
        match cur with
        | Some v ->
            View.refresh ~round v d.d_net;
            v
        | None -> View.take ~landmarks:d.d_landmarks ~round d.d_net
      in
      Obs.Span.record sp Obs.Span.Serve_snapshot ~shard:0 ~round ~t0;
      d.d_view <- Some v;
      v

let ok_of_view v data =
  Protocol.ok ~version:(View.version v) ~epoch:(View.epoch v)
    ~round:(View.round v) data

let component_members_cap = 1000

let eval_query d q =
  let v = view d in
  let g = View.graph v in
  let data =
    match q with
    | Protocol.Status ->
        Jsonx.Obj
          [
            ("nodes", Jsonx.Int (Graph.original_size g));
            ("rounds_run", Jsonx.Int d.d_rounds_run);
            ( "quiesced",
              Jsonx.Bool
                (match Runner.session_result d.d_session with
                | Some o -> o.Runner.quiesced
                | None -> false) );
            ("live_nodes", Jsonx.Int (Graph.node_count g));
            ("live_edges", Jsonx.Int (Graph.edge_count g));
            ("restarts", Jsonx.Int d.d_restarts);
          ]
    | Protocol.Node_state vs ->
        Jsonx.List
          (List.map
             (fun i ->
               if i < 0 || i >= Graph.original_size g then
                 Jsonx.Obj
                   [ ("node", Jsonx.Int i); ("error", Jsonx.String "bad id") ]
               else
                 Jsonx.Obj
                   [
                     ("node", Jsonx.Int i);
                     ("live", Jsonx.Bool (Graph.is_live_node g i));
                     ("state", d.d_state_json (View.state v i));
                   ])
             vs)
    | Protocol.Distances { sources; targets } ->
        Jsonx.List
          (List.map2
             (fun t dist ->
               let x = if dist = max_int then Jsonx.Null else Jsonx.Int dist in
               Jsonx.Obj [ ("node", Jsonx.Int t); ("distance", x) ])
             targets
             (View.distances v ~sources ~targets))
    | Protocol.Census ->
        Jsonx.Obj
          [
            ("live_nodes", Jsonx.Int (Graph.node_count g));
            ("live_edges", Jsonx.Int (Graph.edge_count g));
            ("max_degree", Jsonx.Int (View.max_degree v));
            ("components", Jsonx.Int (Array.length (View.component_sizes v)));
          ]
    | Protocol.Components ->
        let sizes = View.component_sizes v in
        Jsonx.Obj
          [
            ("count", Jsonx.Int (Array.length sizes));
            ( "sizes",
              Jsonx.List
                (List.map (fun s -> Jsonx.Int s) (Array.to_list sizes)) );
          ]
    | Protocol.Component_of n ->
        if n < 0 || n >= Graph.original_size g || not (Graph.is_live_node g n)
        then Jsonx.Obj [ ("node", Jsonx.Int n); ("live", Jsonx.Bool false) ]
        else
          let size, members =
            View.component_of v n ~cap:component_members_cap
          in
          Jsonx.Obj
            [
              ("node", Jsonx.Int n);
              ("live", Jsonx.Bool true);
              ("size", Jsonx.Int size);
              ( "members",
                Jsonx.List (List.map (fun i -> Jsonx.Int i) members) );
              ("truncated", Jsonx.Bool (size > component_members_cap));
            ]
    | Protocol.Bridges ->
        let bs = View.bridges v in
        Jsonx.Obj
          [
            ("count", Jsonx.Int (List.length bs));
            ("edges", Jsonx.List (List.map (fun i -> Jsonx.Int i) bs));
          ]
    | Protocol.Telemetry ->
        Jsonx.Obj
          [
            ("activations", Jsonx.Int (Network.activations d.d_net));
            ("transitions", Jsonx.Int (Network.transitions d.d_net));
            ("state_epoch", Jsonx.Int (Network.state_epoch d.d_net));
            ("graph_version", Jsonx.Int (Graph.version (Network.graph d.d_net)));
            ("rounds_run", Jsonx.Int d.d_rounds_run);
            ("requests_served", Jsonx.Int d.d_requests);
            ("restarts", Jsonx.Int d.d_restarts);
          ]
  in
  ok_of_view v data

let eval_mutation d m =
  let net = d.d_net in
  let g = Network.graph net in
  let automaton = Network.automaton net in
  (* Mark precisely, as the runner's fault pipeline does: account for
     any earlier unreported graph edit first, mark a deletion's
     neighbourhood with the same rule ({!Fault.mark_before}), then
     acknowledge the version bump so the next round steps only the
     marked nodes instead of all of them.  A revival's set_state marks
     the revived node's neighbourhood itself. *)
  let tracking = Network.dirty_tracking net in
  if tracking then Network.reconcile_graph net;
  let delete a =
    Fault.mark_before net a;
    Fault.apply_one ~apply_state:(fun _ -> false) g a
  in
  let effective =
    match m with
    | Protocol.Kill_node n ->
        n >= 0 && n < Graph.original_size g && Graph.is_live_node g n
        && delete (Fault.Kill_node n)
    | Protocol.Kill_edge (u, v) ->
        Graph.edge_between g u v <> None && delete (Fault.Kill_edge (u, v))
    | Protocol.Revive_node n ->
        n >= 0 && n < Graph.original_size g && not (Graph.is_live_node g n)
        && (Graph.revive_node g n;
            Network.set_state net n (automaton.Fssga.init g n);
            true)
    | Protocol.Corrupt n ->
        n >= 0 && n < Graph.original_size g && Graph.is_live_node g n
        && (Network.set_state net n (automaton.Fssga.init g n); true)
  in
  if tracking then Network.ack_graph_mutations net;
  (* A mutation can wake a quiesced network: the finished session already
     emitted its outcome, so arm a fresh one over the same resident
     network. *)
  if effective && Runner.session_result d.d_session <> None then
    d.d_session <- d.d_mk_session ();
  let data = Jsonx.Obj [ ("effective", Jsonx.Bool effective) ] in
  (* Stamp without a snapshot: the rounds this mutation wakes would make
     a view taken now stale before anything read it.  A view that is
     still fresh stamps the reply itself: after a round that changed
     nothing its round is older than [d_rounds_run], and the next query
     will be stamped from it, so stamping from the counters would let
     that query's stamp go back.  Otherwise the counters are what
     [View.take] would record. *)
  match d.d_view with
  | Some v when View.fresh v net -> ok_of_view v data
  | _ ->
      Protocol.ok ~version:(Graph.version g) ~epoch:(Network.state_epoch net)
        ~round:d.d_rounds_run data

let rec eval d = function
  | Protocol.Query q -> eval_query d q
  | Protocol.Mutate m -> eval_mutation d m
  | Protocol.Batch rs ->
      (* One response frame; queries inside share the view unless a
         mutation between them advances it. *)
      let results = List.map (fun r -> eval d r) rs in
      Jsonx.Obj [ ("ok", Jsonx.Bool true); ("results", Jsonx.List results) ]
  | Protocol.Shutdown ->
      d.d_running <- false;
      Jsonx.Obj [ ("ok", Jsonx.Bool true); ("data", Jsonx.String "bye") ]

let handle_frame d s =
  let sp = Obs.Recorder.spans d.d_recorder in
  let t0 = Obs.Span.now sp in
  let resp =
    match Protocol.decode s with
    | Ok req -> eval d req
    | Error msg -> Protocol.error msg
  in
  d.d_requests <- d.d_requests + 1;
  Obs.Span.record sp Obs.Span.Serve_request ~shard:0 ~round:d.d_rounds_run ~t0;
  Jsonx.to_string resp

(* --- event loop -------------------------------------------------------- *)

let conn_pending c = Bytes.length c.c_out - c.c_opos

let drop_conn d c =
  d.d_clients <- List.filter (fun c' -> c'.c_fd <> c.c_fd) d.d_clients;
  try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let evict d c ~reason =
  Obs.Recorder.evict_client d.d_recorder ~reason;
  drop_conn d c

let enqueue_out c payload =
  let frame = Wire.encode_frame payload in
  let pending = conn_pending c in
  if pending = 0 then begin
    c.c_out <- frame;
    c.c_opos <- 0
  end
  else begin
    let nb = Bytes.create (pending + Bytes.length frame) in
    Bytes.blit c.c_out c.c_opos nb 0 pending;
    Bytes.blit frame 0 nb pending (Bytes.length frame);
    c.c_out <- nb;
    c.c_opos <- 0
  end

let flush_conn d c =
  let pending = conn_pending c in
  if pending > 0 then begin
    match Unix.write c.c_fd c.c_out c.c_opos pending with
    | k ->
        if k > 0 then begin
          c.c_opos <- c.c_opos + k;
          c.c_last <- Unix.gettimeofday ()
        end;
        if conn_pending c = 0 then begin
          c.c_out <- Bytes.empty;
          c.c_opos <- 0
        end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        drop_conn d c
  end

let read_conn d c =
  let chunk = d.d_read_buf in
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop_conn d c (* EOF *)
  | k -> (
      c.c_last <- Unix.gettimeofday ();
      Wire.feed c.c_dec chunk k;
      (* Drain every complete frame the chunk completed.  A bad length
         prefix is unrecoverable garbage — the connection is evicted,
         never the daemon.  A client that will not read its responses
         (outbound buffer past the limit) is evicted too, so one slow
         reader cannot balloon the daemon's memory. *)
      let rec frames () =
        match Wire.next c.c_dec with
        | Wire.Need_more -> `Live
        | Wire.Bad _ -> `Evict "bad_frame"
        | Wire.Frame s ->
            enqueue_out c (handle_frame d s);
            if conn_pending c > d.d_write_buf_limit then `Evict "slow_reader"
            else frames ()
      in
      match frames () with
      | `Evict reason -> evict d c ~reason
      | `Live -> flush_conn d c)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop_conn d c

(* Connections stalled mid-frame (read side) or with undeliverable
   output (write side) past the deadline are dead weight: evict. *)
let sweep_deadlines d =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if
        (Wire.buffered c.c_dec > 0 || conn_pending c > 0)
        && now -. c.c_last > d.d_read_deadline
      then evict d c ~reason:"deadline")
    d.d_clients

(* The restart checkpoint, refreshed in place from the write and flip
   logs once it exists. *)
let save_checkpoint d =
  let sp = Obs.Recorder.spans d.d_recorder in
  let t0 = Obs.Span.now sp in
  (match d.d_checkpoint with
  | Some cp -> Network.refresh_checkpoint d.d_net cp
  | None -> d.d_checkpoint <- Some (Network.checkpoint d.d_net));
  Obs.Span.record sp Obs.Span.Checkpoint ~shard:0 ~round:d.d_rounds_run ~t0

let step_rounds d =
  match Runner.session_result d.d_session with
  | Some _ -> ()
  | None ->
      let rec go k =
        if k > 0 then begin
          match Runner.step d.d_session with
          | None ->
              d.d_rounds_run <- d.d_rounds_run + 1;
              go (k - 1)
          | Some _ ->
              d.d_rounds_run <- d.d_rounds_run + 1;
              (* the session just finished: a quiesced state is the
                 cheapest-to-lose restart point there is *)
              save_checkpoint d
        end
      in
      go d.d_rounds_per_tick

let active d = Runner.session_result d.d_session = None

let checkpoint_every_ticks = 256

let tick ?(timeout = 0.05) d =
  let timeout = if active d then 0. else timeout in
  d.d_ticks <- d.d_ticks + 1;
  if d.d_ticks mod checkpoint_every_ticks = 0 then save_checkpoint d;
  let fds = d.d_listen :: List.map (fun c -> c.c_fd) d.d_clients in
  let wfds =
    List.filter_map
      (fun c -> if conn_pending c > 0 then Some c.c_fd else None)
      d.d_clients
  in
  let readable, writable, _ =
    try Unix.select fds wfds [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let find_conn fd = List.find_opt (fun c -> c.c_fd = fd) d.d_clients in
  List.iter
    (fun fd ->
      if fd = d.d_listen then begin
        match Unix.accept d.d_listen with
        | client, _ ->
            Unix.set_nonblock client;
            d.d_clients <-
              {
                c_fd = client;
                c_dec = Wire.decoder ();
                c_out = Bytes.empty;
                c_opos = 0;
                c_last = Unix.gettimeofday ();
              }
              :: d.d_clients
        | exception Unix.Unix_error _ -> ()
      end
      else
        match find_conn fd with Some c -> read_conn d c | None -> ())
    readable;
  List.iter
    (fun fd -> match find_conn fd with Some c -> flush_conn d c | None -> ())
    writable;
  sweep_deadlines d;
  if d.d_running then step_rounds d

let drop_all_clients d =
  List.iter
    (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    d.d_clients;
  d.d_clients <- []

let close d =
  drop_all_clients d;
  (try Unix.close d.d_listen with Unix.Unix_error _ -> ());
  match d.d_addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let running d = d.d_running

(* The supervisor: a crash anywhere in the serve core (a query
   evaluator bug, an unexpected syscall error) must not take the daemon
   down.  Restore the network from the last checkpoint, arm a fresh
   session, drop every connection (their protocol state is unknown) and
   keep serving.  Bounded: a hot crash loop re-raises after
   [max_restarts], because restarting forever would just burn the CPU
   while serving nothing. *)
let max_restarts = 16

let restart_core d =
  d.d_restarts <- d.d_restarts + 1;
  drop_all_clients d;
  (match d.d_checkpoint with
  | Some cp -> ( try Network.restore d.d_net cp with _ -> ())
  | None -> ());
  d.d_view <- None;
  d.d_session <- d.d_mk_session ();
  Obs.Recorder.recovery d.d_recorder ~round:d.d_rounds_run
    ~attempt:d.d_restarts ~action:"serve_restart"

let serve_forever ?(supervise = true) d =
  Fun.protect
    ~finally:(fun () -> close d)
    (fun () ->
      while d.d_running do
        try tick d
        with e when supervise && d.d_restarts < max_restarts -> (
          match e with
          | Out_of_memory | Stack_overflow -> raise e
          | _ -> restart_core d)
      done)
