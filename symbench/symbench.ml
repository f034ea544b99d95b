(* One measured run of one workload, in a fresh process.

     symbench.exe WORKLOAD --seed N --sub K [--traced] [--trace-out FILE]
                  [--sock PATH]
     symbench.exe host_probe

   Prints one JSON object on stdout: the run's raw measurements (set-up
   and run times, per-round or per-request samples, GC counters, output
   checks and, when traced, per-layer totals).  run.py starts several of
   these per benchmark run and aggregates them; see README.md.
   [host_probe] prints the host probe's time in ms instead. *)

module Jsonx = Symnet_obs.Jsonx

let usage () =
  prerr_endline
    "usage: symbench.exe (census_sweep|sp_chaos_sharded|serve_hammer) --seed N \
     --sub K [--traced] [--trace-out FILE] [--sock PATH]\n\
    \       symbench.exe host_probe";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "host_probe" ] then begin
    Printf.printf "%.6f\n" (Probe.host_probe_ms ());
    exit 0
  end;
  let workload, rest =
    match args with w :: rest -> (w, rest) | [] -> usage ()
  in
  let seed = ref 1 and sub = ref 0 and traced = ref false in
  let trace_out = ref None and sock = ref ".symbench.sock" in
  let rec parse = function
    | [] -> ()
    | "--traced" :: r ->
        traced := true;
        parse r
    | "--seed" :: v :: r ->
        seed := int_of_string v;
        parse r
    | "--sub" :: v :: r ->
        sub := int_of_string v;
        parse r
    | "--trace-out" :: v :: r ->
        trace_out := Some v;
        parse r
    | "--sock" :: v :: r ->
        sock := v;
        parse r
    | _ -> usage ()
  in
  (try parse rest with Failure _ -> usage ());
  let calib_before = Probe.calib_ms () in
  let seed = !seed and sub = !sub and traced = !traced and trace_out = !trace_out in
  let sample =
    match workload with
    | "census_sweep" -> Engine_runs.census_sweep ~seed ~sub ~traced ~trace_out
    | "sp_chaos_sharded" ->
        Engine_runs.sp_chaos_sharded ~seed ~sub ~traced ~trace_out
    | "serve_hammer" ->
        Serve_run.serve_hammer ~seed ~sub ~traced ~trace_out ~sock:!sock
    | _ -> usage ()
  in
  let peak_rss_mb = Probe.peak_rss_mb () in
  let calib_after = Probe.calib_ms () in
  let fields = match sample with Jsonx.Obj f -> f | _ -> [] in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          ([
             ("workload", Jsonx.String workload);
             ("seed", Jsonx.Int seed);
             ("sub", Jsonx.Int sub);
             ("traced", Jsonx.Bool traced);
             ("peak_rss_mb", Jsonx.Float peak_rss_mb);
             ("calib_ms", Probe.floats [ calib_before; calib_after ]);
           ]
          @ fields)))
