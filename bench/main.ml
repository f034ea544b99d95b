(* symnet experiment harness.

   Regenerates every quantitative claim of "Symmetric Network
   Computation" (Pritchard & Vempala, SPAA 2006) — the experiment index
   lives in DESIGN.md, the recorded results in EXPERIMENTS.md.

     dune exec bench/main.exe            # all experiments + timing kernels
     dune exec bench/main.exe -- e10     # one experiment
     dune exec bench/main.exe -- tables  # all experiment tables, no kernels
     dune exec bench/main.exe -- kernels # bechamel kernels only
     dune exec bench/main.exe -- sort    # frontier sort: bitmap vs radix, us/sort
     dune exec bench/main.exe -- distances [--smoke]  # guided vs BFS distance queries
     dune exec bench/main.exe -- engine  # hot-path bench -> BENCH_engine.json
     dune exec bench/main.exe -- engine --smoke   # tiny CI variant
     dune exec bench/main.exe -- engine --domains 4   # pin parallel rows to {1,4}
     dune exec bench/main.exe -- e16 --smoke     # tiny chaos-MTTR variant
     dune exec bench/main.exe -- regress --smoke # perf gate vs BENCH_engine.json
     dune exec bench/main.exe -- regress --smoke --inject 2  # gate self-test
*)

let experiments =
  [
    ("e01", E01_census.run);
    ("e02", E02_bridges.run);
    ("e03", E03_shortest_paths.run);
    ("e04", E04_two_colouring.run);
    ("e05", E05_synchronizer.run);
    ("e06", E06_bfs.run);
    ("e07", E07_random_walk.run);
    ("e08", E08_traversal.run);
    ("e09", E09_tourist.run);
    ("e10", E10_election.run);
    ("e11", E11_equivalence.run);
    ("e12", E12_iwa.run);
    ("e13", E13_sensitivity.run);
    ("e14", E14_firing_squad.run);
    ("e15", E15_stabilization.run);
    ("e16", fun () -> E16_chaos.run ());
    ("e17", fun () -> E17_sm_backends.run ());
    ("e18", fun () -> E18_sharded.run ());
    ("e19", fun () -> E19_serve.run ());
  ]

let run_tables () = List.iter (fun (_, f) -> f ()) experiments

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
      run_tables ();
      Kernels.run ()
  | [ _; "tables" ] -> run_tables ()
  | [ _; "kernels" ] -> Kernels.run ()
  | [ _; "sort" ] -> Sort_bench.run ()
  | [ _; "distances" ] -> Distance_bench.run ~smoke:false
  | [ _; "distances"; "--smoke" ] -> Distance_bench.run ~smoke:true
  | _ :: "engine" :: rest -> (
      (* engine [--smoke] [--domains N] in any order *)
      let rec parse smoke domains = function
        | [] -> Some (smoke, domains)
        | "--smoke" :: rest -> parse true domains rest
        | "--domains" :: n :: rest -> (
            match int_of_string_opt n with
            | Some d when d >= 1 -> parse smoke (Some d) rest
            | _ -> None)
        | _ -> None
      in
      match parse false None rest with
      | Some (smoke, domains) -> Engine_bench.run ~smoke ?domains ()
      | None ->
          prerr_endline "usage: main.exe engine [--smoke] [--domains N]";
          exit 2)
  | _ :: "regress" :: rest -> (
      (* regress [--baseline FILE] [--tolerance PCT] [--smoke]
         [--domains N] [--inject FACTOR] in any order *)
      let rec parse baseline tol smoke domains inject = function
        | [] -> Some (baseline, tol, smoke, domains, inject)
        | "--baseline" :: f :: rest -> parse f tol smoke domains inject rest
        | "--tolerance" :: v :: rest -> (
            match float_of_string_opt v with
            | Some t when t >= 0. -> parse baseline t smoke domains inject rest
            | _ -> None)
        | "--smoke" :: rest -> parse baseline tol true domains inject rest
        | "--domains" :: n :: rest -> (
            match int_of_string_opt n with
            | Some d when d >= 1 -> parse baseline tol smoke (Some d) inject rest
            | _ -> None)
        | "--inject" :: v :: rest -> (
            match float_of_string_opt v with
            | Some f when f > 0. ->
                parse baseline tol smoke domains (Some f) rest
            | _ -> None)
        | _ -> None
      in
      match parse "BENCH_engine.json" 50. false None None rest with
      | Some (baseline_file, tolerance_pct, smoke, domains, inject) ->
          Regress_gate.run ~baseline_file ~tolerance_pct ~smoke ?domains
            ~inject ()
      | None ->
          prerr_endline
            "usage: main.exe regress [--baseline FILE] [--tolerance PCT] \
             [--smoke] [--domains N] [--inject FACTOR]";
          exit 2)
  | [ _; "e16"; "--smoke" ] -> E16_chaos.run ~smoke:true ()
  | [ _; "e17"; "--smoke" ] -> E17_sm_backends.run ~smoke:true ()
  | [ _; "e18"; "--smoke" ] -> E18_sharded.run ~smoke:true ()
  | [ _; "e19"; "--smoke" ] -> E19_serve.run ~smoke:true ()
  | [ _; name ] -> (
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf
            "unknown experiment %s (e01..e19, tables, kernels, engine, sort)\n"
            name;
          exit 2)
  | _ ->
      prerr_endline "usage: main.exe [e01..e19|tables|kernels|engine|sort|all]";
      exit 2
