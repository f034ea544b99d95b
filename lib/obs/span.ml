type phase =
  | Round
  | Read
  | Merge
  | Commit
  | Fault_apply
  | Checkpoint
  | Recovery
  | Digest_update
  | Digest_query
  | Shard_read
  | Shard_exchange
  | Link_exchange
  | Serve_snapshot
  | Serve_request
  | Frontier
  | Shard_resync

let phase_name = function
  | Round -> "round"
  | Read -> "read"
  | Merge -> "merge"
  | Commit -> "commit"
  | Fault_apply -> "fault_apply"
  | Checkpoint -> "checkpoint"
  | Recovery -> "recovery"
  | Digest_update -> "digest_update"
  | Digest_query -> "digest_query"
  | Shard_read -> "shard_read"
  | Shard_exchange -> "shard_exchange"
  | Link_exchange -> "link_exchange"
  | Serve_snapshot -> "serve_snapshot"
  | Serve_request -> "serve_request"
  | Frontier -> "frontier"
  | Shard_resync -> "shard_resync"

let phase_tag = function
  | Round -> 0
  | Read -> 1
  | Merge -> 2
  | Commit -> 3
  | Fault_apply -> 4
  | Checkpoint -> 5
  | Recovery -> 6
  | Digest_update -> 7
  | Digest_query -> 8
  | Shard_read -> 9
  | Shard_exchange -> 10
  | Serve_snapshot -> 11
  | Serve_request -> 12
  | Link_exchange -> 13
  | Frontier -> 14
  | Shard_resync -> 15

let phase_of_tag = function
  | 0 -> Round
  | 1 -> Read
  | 2 -> Merge
  | 3 -> Commit
  | 4 -> Fault_apply
  | 5 -> Checkpoint
  | 7 -> Digest_update
  | 8 -> Digest_query
  | 9 -> Shard_read
  | 10 -> Shard_exchange
  | 11 -> Serve_snapshot
  | 12 -> Serve_request
  | 13 -> Link_exchange
  | 14 -> Frontier
  | 15 -> Shard_resync
  | _ -> Recovery

(* Parallel int arrays rather than an array of records: record stores
   into preallocated flat arrays, so the hot path allocates nothing. *)
type ring = {
  cap : int;
  ph : int array;
  sh : int array;
  rd : int array;
  t0 : int array;
  du : int array;
  cursor : int Atomic.t;  (* total spans ever claimed *)
  origin : int;
}

type t = Disabled | Enabled of ring

let null = Disabled

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  Enabled
    {
      cap = capacity;
      ph = Array.make capacity 0;
      sh = Array.make capacity 0;
      rd = Array.make capacity 0;
      t0 = Array.make capacity 0;
      du = Array.make capacity 0;
      cursor = Atomic.make 0;
      origin = Clock.now_ns ();
    }

let enabled = function Disabled -> false | Enabled _ -> true
let now = function Disabled -> 0 | Enabled _ -> Clock.now_ns ()

let record t phase ~shard ~round ~t0 =
  match t with
  | Disabled -> ()
  | Enabled r ->
      let t1 = Clock.now_ns () in
      let i = Atomic.fetch_and_add r.cursor 1 mod r.cap in
      r.ph.(i) <- phase_tag phase;
      r.sh.(i) <- shard;
      r.rd.(i) <- round;
      r.t0.(i) <- t0;
      r.du.(i) <- t1 - t0

let recorded = function Disabled -> 0 | Enabled r -> Atomic.get r.cursor
let dropped = function
  | Disabled -> 0
  | Enabled r -> max 0 (Atomic.get r.cursor - r.cap)

let capacity = function Disabled -> 0 | Enabled r -> r.cap
let origin_ns = function Disabled -> 0 | Enabled r -> r.origin

type span = { phase : phase; shard : int; round : int; t0_ns : int; dur_ns : int }

let spans = function
  | Disabled -> []
  | Enabled r ->
      let total = Atomic.get r.cursor in
      let kept = min total r.cap in
      List.init kept (fun k ->
          (* oldest retained span first: logical index total-kept+k *)
          let i = (total - kept + k) mod r.cap in
          {
            phase = phase_of_tag r.ph.(i);
            shard = r.sh.(i);
            round = r.rd.(i);
            t0_ns = r.t0.(i);
            dur_ns = r.du.(i);
          })

let chrome_json t =
  let origin = origin_ns t in
  let ss = spans t in
  (* Microsecond floats per the trace-event spec; ns precision survives
     as fractional microseconds. *)
  let us ns = float_of_int ns /. 1e3 in
  let span_event s =
    Jsonx.Obj
      [
        ("name", Jsonx.String (phase_name s.phase));
        ("cat", Jsonx.String "symnet");
        ("ph", Jsonx.String "X");
        ("ts", Jsonx.Float (us (s.t0_ns - origin)));
        ("dur", Jsonx.Float (us s.dur_ns));
        ("pid", Jsonx.Int 0);
        ("tid", Jsonx.Int s.shard);
        ("args", Jsonx.Obj [ ("round", Jsonx.Int s.round) ]);
      ]
  in
  let tids = List.sort_uniq compare (List.map (fun s -> s.shard) ss) in
  let thread_name tid =
    Jsonx.Obj
      [
        ("name", Jsonx.String "thread_name");
        ("ph", Jsonx.String "M");
        ("pid", Jsonx.Int 0);
        ("tid", Jsonx.Int tid);
        ( "args",
          Jsonx.Obj
            [
              ( "name",
                Jsonx.String
                  (if tid = 0 then "engine" else Printf.sprintf "shard %d" tid)
              );
            ] );
      ]
  in
  Jsonx.Obj
    [
      ( "traceEvents",
        Jsonx.List (List.map thread_name tids @ List.map span_event ss) );
      ("displayTimeUnit", Jsonx.String "ms");
      ("otherData", Jsonx.Obj [ ("dropped_spans", Jsonx.Int (dropped t)) ]);
    ]
