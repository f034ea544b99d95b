(* Measurement helpers shared by the workloads: the host-speed probe,
   peak RSS, GC counters, percentiles, the benchmark's own span log, and
   the self-time attribution that turns nested spans into per-layer
   totals. *)

module Clock = Symnet_obs.Clock
module Span = Symnet_obs.Span
module Jsonx = Symnet_obs.Jsonx

let now_ns = Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6

(* A fixed integer loop: its time changes only when the host's speed
   does, so a reader can tell host drift from a program change. *)
let calib_ms () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := ((!acc * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc);
  ms (now_ns () - t0)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let k = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | l when String.length l > k && String.sub l 0 k = prefix ->
                Scanf.sscanf
                  (String.sub l k (String.length l - k))
                  " %d kB"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> go ()
          in
          go ())

(* Exact GC counters around a measured phase. *)
type gc = { minor_words : float; promoted_words : float; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major = b.major - a.major;
  }

let gc_add x y =
  {
    minor_words = x.minor_words +. y.minor_words;
    promoted_words = x.promoted_words +. y.promoted_words;
    major = x.major + y.major;
  }

let gc_json d ~activations =
  Jsonx.Obj
    [
      ("minor_words", Jsonx.Float d.minor_words);
      ( "minor_words_per_activation",
        Jsonx.Float (d.minor_words /. float_of_int (max 1 activations)) );
      ( "promoted_mb",
        Jsonx.Float
          (d.promoted_words *. float_of_int (Sys.word_size / 8) /. 1048576.) );
      ("major_collections", Jsonx.Int d.major);
    ]

(* The highest percentile that still has at least ten samples beyond
   it; run.py uses the same ladder for pooled samples. *)
let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail_q n =
  match List.find_opt (fun q -> float_of_int n *. (1. -. q) >= 10.) ladder with
  | Some q -> q
  | None -> 0.5

(* Linear interpolation between order statistics. *)
let percentile q xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* A fixed allocation-heavy kernel: cons a list over 200,000 boxed
   cells ten times (each list outgrows the minor heap, so it is
   promoted), then a full major GC.  This is the kind of work the
   workloads' slow phases do, and on a shared host it slows with them
   when neighbours contend for the last-level cache and memory, which
   the ALU loop above barely notices.  The workloads run it in a child
   process at each phase boundary ({!host_probe_child}), and run.py
   scales each phase's times by the readings around it (README.md,
   "Host-speed normalisation").  One untimed pass warms the heap; the
   result is the median of three timed passes. *)
type cell = { mutable v : int; id : int }

let host_probe_ms () =
  let live = Array.init 200_000 (fun i -> { v = i; id = i }) in
  let churn () =
    let keep = ref [] in
    for _ = 1 to 10 do
      keep := Array.fold_left (fun l c -> c :: l) [] live
    done;
    ignore (Sys.opaque_identity !keep);
    Gc.full_major ()
  in
  churn ();
  let pass () =
    let t0 = now_ns () in
    churn ();
    ms (now_ns () - t0)
  in
  let t = percentile 0.5 (Array.init 3 (fun _ -> pass ())) in
  ignore (Sys.opaque_identity live.(0).v);
  t

(* [host_probe_ms] in a fresh process of this executable
   ([symbench.exe host_probe]), so that its heap and its peak RSS stay
   out of the measured process. *)
let host_probe_child () =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "host_probe" |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> float_of_string (String.trim line)
  | _ -> failwith "host probe failed"

let floats l = Jsonx.List (List.map (fun x -> Jsonx.Float x) l)

(* {1 The benchmark's own spans}

   [Span] has a fixed phase vocabulary owned by the library, so the
   spans the benchmark wraps around its own calls into the library
   (set-up steps, [Runner.step], [Daemon.tick], client encode / write /
   read / decode) live in this log.  Each carries a tag — the round or
   the request index — so one request's spans can be joined. *)

type log = {
  on : bool;
  mutable names : string array;
  mutable t0s : int array;
  mutable t1s : int array;
  mutable tags : int array;
  mutable len : int;
}

let log ~on =
  let cap = if on then 4096 else 0 in
  {
    on;
    names = Array.make cap "";
    t0s = Array.make cap 0;
    t1s = Array.make cap 0;
    tags = Array.make cap 0;
    len = 0;
  }

let grow l =
  let cap = 2 * Array.length l.t0s in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 l.len;
    b
  in
  l.names <- ext l.names "";
  l.t0s <- ext l.t0s 0;
  l.t1s <- ext l.t1s 0;
  l.tags <- ext l.tags 0

(* Close a span opened at [t0]; returns the end time so callers can
   chain phases without a second clock read. *)
let record l name ~tag ~t0 =
  let t1 = now_ns () in
  if l.on then begin
    if l.len = Array.length l.t0s then grow l;
    l.names.(l.len) <- name;
    l.t0s.(l.len) <- t0;
    l.t1s.(l.len) <- t1;
    l.tags.(l.len) <- tag;
    l.len <- l.len + 1
  end;
  t1

let timed l name ~tag f =
  let t0 = now_ns () in
  let r = f () in
  ignore (record l name ~tag ~t0);
  r

(* {1 Attribution}

   Every span, library or benchmark, becomes an interval with a layer
   name.  A span's self time is its duration minus the part its direct
   children cover.  Container spans (a whole [Runner.step], a library
   [round], a [Daemon.tick]) name no work of their own: their self time
   is the unattributed residual.  Everything else is attributed to its
   layer. *)

type item = { layer : string; a : int; b : int }

let items_of ~spans ~log =
  let lib =
    List.map
      (fun (s : Span.span) ->
        { layer = Span.phase_name s.phase; a = s.t0_ns; b = s.t0_ns + s.dur_ns })
      (Span.spans spans)
  in
  let own =
    List.init log.len (fun i ->
        { layer = log.names.(i); a = log.t0s.(i); b = log.t1s.(i) })
  in
  lib @ own

type attribution = {
  wall_ns : int;
  self : (string, int) Hashtbl.t;  (* self ns per layer *)
  residual_ns : int;
}

let attribute ~containers ~windows items =
  let self = Hashtbl.create 16 in
  let add layer ns =
    Hashtbl.replace self layer
      (ns + Option.value ~default:0 (Hashtbl.find_opt self layer))
  in
  let inside i = List.exists (fun (w0, w1) -> i.a >= w0 && i.b <= w1) windows in
  let arr = Array.of_list (List.filter inside items) in
  Array.sort
    (fun x y -> if x.a <> y.a then compare x.a y.a else compare y.b x.b)
    arr;
  let child = Array.make (Array.length arr) 0 in
  let stack = ref [] in
  Array.iteri
    (fun i it ->
      let rec pop () =
        match !stack with
        | j :: rest when arr.(j).b <= it.a ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ -> child.(j) <- child.(j) + (min it.b arr.(j).b - it.a)
      | [] -> ());
      stack := i :: !stack)
    arr;
  Array.iteri (fun i it -> add it.layer (it.b - it.a - child.(i))) arr;
  let wall_ns = List.fold_left (fun s (w0, w1) -> s + (w1 - w0)) 0 windows in
  let attributed =
    Hashtbl.fold
      (fun layer ns s -> if List.mem layer containers then s else s + ns)
      self 0
  in
  { wall_ns; self; residual_ns = wall_ns - attributed }

let self_ms at layer =
  ms (Option.value ~default:0 (Hashtbl.find_opt at.self layer))

let obs_metrics at ~spans =
  [
    ( "obs.coverage",
      1. -. (float_of_int at.residual_ns /. float_of_int (max 1 at.wall_ns)) );
    ("obs.residual_ms", ms at.residual_ns);
    ("obs.spans_dropped", float_of_int (Span.dropped spans));
  ]

(* The Chrome trace: the library's spans via [Span.chrome_json], with
   the benchmark's own spans appended on their own track. *)
let write_chrome ~path ~spans ~log =
  let origin = Span.origin_ns spans in
  let us ns = float_of_int ns /. 1e3 in
  let own =
    List.init log.len (fun i ->
        Jsonx.Obj
          [
            ("name", Jsonx.String log.names.(i));
            ("cat", Jsonx.String "symbench");
            ("ph", Jsonx.String "X");
            ("ts", Jsonx.Float (us (log.t0s.(i) - origin)));
            ("dur", Jsonx.Float (us (log.t1s.(i) - log.t0s.(i))));
            ("pid", Jsonx.Int 0);
            ("tid", Jsonx.Int 1000);
            ("args", Jsonx.Obj [ ("tag", Jsonx.Int log.tags.(i)) ]);
          ])
  in
  let track =
    Jsonx.Obj
      [
        ("name", Jsonx.String "thread_name");
        ("ph", Jsonx.String "M");
        ("pid", Jsonx.Int 0);
        ("tid", Jsonx.Int 1000);
        ("args", Jsonx.Obj [ ("name", Jsonx.String "symbench") ]);
      ]
  in
  let events =
    match Span.chrome_json spans with
    | Jsonx.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Jsonx.List evs) -> evs
        | _ -> [])
    | _ -> []
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Jsonx.to_string
           (Jsonx.Obj [ ("traceEvents", Jsonx.List ((track :: events) @ own)) ])))
