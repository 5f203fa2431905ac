(* The repository benchmark.

     gnrbench.exe run --workload <name> --seed <n> --seconds <s> --trace <0|1>
                      --cli <gnrfet_cli.exe> [--data DIR] [--source ID]
     gnrbench.exe regen [--data DIR]
     gnrbench.exe setup --workload <table-nominal | table-impurity>

   `run` prints one line per fact, check and metric, then as its last line
   one JSON object {"correct", "attempted", "failed", "metrics"}: every
   end-to-end metric with --trace 0, every per-layer metric with
   --trace 1.  It exits 1 when an output check fails.  `setup` times one
   cold table set-up in its own process, in reference seconds
   (Pb_speed).  `regen` rewrites
   the committed fixtures (about three minutes on one core).  Both run
   from the repository root; perfbench/run.py builds and calls this. *)

open Pb_common

let workloads = [ "table-nominal"; "table-impurity"; "explore"; "serve" ]

let result_json r metrics =
  let metric m = (m.name, Sjson.Obj [ ("value", Sjson.Num m.value); ("unit", Sjson.Str m.unit_) ]) in
  Sjson.to_string
    (Sjson.Obj
       [
         ("correct", Sjson.Bool (r.problems = []));
         ("attempted", Sjson.Num (float_of_int r.attempted));
         ("failed", Sjson.Num (float_of_int r.failed));
         ("metrics", Sjson.Obj (List.map metric metrics));
       ])

let run ~workload ~seed ~seconds ~trace ~cli ~data ~source =
  (* End-to-end figures come from untraced runs whatever GNRFET_OBS says;
     a traced run enables the registry around its traced phase only. *)
  Obs.set_enabled Obs.global false;
  let r = report () in
  let work = Filename.concat ".bench_work" (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      rm_rf work;
      try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ())
    (fun () ->
      match workload with
      | "table-nominal" -> Pb_table.run r Pb_table.Nominal ~workload ~data ~work ~seconds ~trace
      | "table-impurity" -> Pb_table.run r Pb_table.Impurity ~workload ~data ~work ~seconds ~trace
      | "explore" -> Pb_explore.run r ~data ~seed ~seconds ~trace
      | "serve" -> Pb_serve.run r ~cli ~data ~work ~seed ~seconds ~trace
      | w -> invalid_arg ("unknown workload " ^ w));
  let inventory = List.map fst (if trace then layer_metrics else e2e_metrics) in
  let rank m =
    let rec go i = function x :: rest -> if x = m.name then i else go (i + 1) rest | [] -> i in
    go 0 inventory
  in
  let metrics =
    List.stable_sort (fun a b -> compare (rank a) (rank b)) (if trace then r.layer else r.e2e)
  in
  List.iter
    (fun m -> if not (Float.is_finite m.value) then r.problems <- ("non-finite " ^ m.name) :: r.problems)
    metrics;
  let metrics = List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0. }) metrics in
  Printf.printf "workload: %s  seed: %d  seconds: %g  trace: %b\n" workload seed seconds trace;
  Printf.printf "machine: nproc=%d pool_width=%d ocaml=%s source=%s obs=%s\n"
    (Domain.recommended_domain_count ()) (Parallel.num_domains ()) Sys.ocaml_version source
    (if trace then "on (traced phase)" else "off");
  List.iter print_endline (List.rev r.lines);
  List.iter (fun m -> Printf.printf "%-32s %.6g %s\n" m.name m.value m.unit_) metrics;
  if not trace then
    Printf.printf "%-32s %.6g ratio\n" "failed_frac" (ratio (float_of_int r.failed) (float_of_int r.attempted));
  print_endline (result_json r metrics);
  if r.problems <> [] then exit 1

let provenance what ~made_by regen =
  [
    what;
    Printf.sprintf "Made by %s (OCaml %s) from this repository's sources." made_by Sys.ocaml_version;
    "Regenerate (about three minutes) from the repository root with:";
    "  " ^ regen;
  ]

let regen ~data =
  let cmd = "dune exec perfbench/gnrbench.exe -- regen --data " ^ data in
  mkdir_p data;
  let fixture_path = Filename.concat data Pb_explore.fixture_file in
  let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt in
  let t, dt = time (fun () -> Iv_table.generate (Params.default ())) in
  Pb_fixture.write_table ~path:fixture_path
    ~provenance:
      (provenance
         "Fixture table: the nominal N = 12 device (Params.default) on Iv_table.default_grid, read \
          by the explore and serve workloads."
         ~made_by:"Iv_table.generate" cmd)
    t;
  say "%s: %.1f s" fixture_path dt;
  List.iter
    (fun device ->
      let file = Pb_table.reference_file device in
      let t, dt = time (fun () -> Iv_table.generate ~grid:Pb_table.grid (Pb_table.params device)) in
      Pb_fixture.write_table ~path:(Filename.concat data file)
        ~provenance:
          (provenance
             "Reference for the table workloads: the production VG axis with VD in {0, 0.5} V; \
              checked to a relative tolerance, not bit for bit."
             ~made_by:"Iv_table.generate" cmd)
        t;
      say "%s: %.1f s" file dt)
    [ Pb_table.Nominal; Pb_table.Impurity ];
  let table = Pb_fixture.read_table fixture_path in
  let s, dt =
    time (fun () ->
        Explore.surface ~stages:Pb_explore.stages ~vdds:Pb_explore.vdds ~vts:Pb_explore.vts table)
  in
  Pb_fixture.write_points
    ~path:(Filename.concat data Pb_explore.reference_file)
    ~provenance:
      (provenance
         "Reference for the explore workload: Explore.surface over the Fig 3(b) 13 x 13 plane on \
          the fixture table."
         ~made_by:"Explore.surface" cmd)
    (List.concat_map Array.to_list (Array.to_list s.Explore.points));
  say "%s: %.1f s" Pb_explore.reference_file dt

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "_build/default/bin/gnrfet_cli.exe" and data = ref "perfbench/data" in
  let source = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer metrics");
      ("--cli", Arg.Set_string cli, " gnrfet_cli executable the serve workload starts");
      ("--data", Arg.Set_string data, " fixture directory");
      ("--source", Arg.Set_string source, " source revision recorded with the result");
    ]
  in
  let mode = ref None in
  Arg.parse (Arg.align specs)
    (fun a -> if !mode = None then mode := Some a else raise (Arg.Bad ("unexpected " ^ a)))
    "gnrbench.exe (run | regen) [options]";
  match !mode with
  | Some "run" when List.mem !workload workloads && (!trace = 0 || !trace = 1) ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~cli:!cli ~data:!data
      ~source:!source
  | Some "regen" -> regen ~data:!data
  | Some "setup" when !workload = "table-nominal" || !workload = "table-impurity" ->
    let device = if !workload = "table-nominal" then Pb_table.Nominal else Pb_table.Impurity in
    Printf.printf "%.17g\n" (Pb_table.setup_seconds device)
  | _ ->
    prerr_endline "usage: gnrbench.exe (run --workload <name> --seed <n> --seconds <s> --trace <0|1> | regen)";
    exit 2
