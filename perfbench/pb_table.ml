(* The table-nominal and table-impurity workloads: Table_cache.get into a
   fresh private table directory, the system's dominant cost. *)

open Pb_common

type device = Nominal | Impurity

(* The production VG axis (its 25 mV step sets the continuation distance
   and so the SCF iteration count); the VD axis thinned to {0, 0.5} V. *)
let grid = { Iv_table.default_grid with Iv_table.vd_max = 0.5; n_vd = 2 }

let params = function
  | Nominal -> Params.default ()
  | Impurity -> Params.with_impurity_charge (Params.default ()) (-2.)

let reference_file = function
  | Nominal -> "ref_table_nominal.json"
  | Impurity -> "ref_table_impurity.json"

(* Output-check tolerances.  Current and charge agree with the committed
   reference to 2 %, with an absolute floor of 1e-3 of the table's
   largest magnitude so off-state points are not judged on digits below
   the SCF tolerance.  Ion at VG = VD = 0.5 V is EXPERIMENTS.md's
   1.56 uA/GNR to 2 %; the leakage minimum at VD = 0.5 V sits at
   VG = 0.250 V to within half a grid step. *)
let rel_tol = 0.02

let floor_frac = 1e-3

let ion_expected = 1.56e-6

let leak_vg_expected = 0.25

let leak_vg_tol = 0.0125

let max_quarantined = function Nominal -> 0 | Impurity -> 2

(* Set-up is the first Scf.solve on the device, capped at one
   iteration: it builds what Scf and the mode-space reduction memoise per
   geometry for the life of the process, and little else.  A process can
   pay it only once, so the repeats run in fresh child processes
   ([gnrbench.exe setup], each reading its own reference seconds) and
   the last one in this process, whose memo the timed phase then uses. *)
let setup_repeats = 3

let warm_up p = ignore (Scf.solve ~max_iter:1 p ~vg:grid.Iv_table.vg_min ~vd:0.)

let setup_interval device = snd (clocked (fun () -> warm_up (params device)))

(* One set-up in a process of its own, in reference seconds. *)
let setup_seconds device =
  let sampler = Pb_speed.start () in
  let span = setup_interval device in
  ref_s (Pb_speed.stop sampler) span

let child_setup ~workload =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "setup"; "--workload"; workload |] in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up child failed: " ^ out)

type run = { table : Iv_table.t; span : float * float; minor_words : float; majors : int }

let points (t : Iv_table.t) = Array.length t.vg * Array.length t.vd

let generate ~work ~index p =
  let dir = Filename.concat work (Printf.sprintf "tables-%d" index) in
  mkdir_p dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Table_cache.clear_memory ();
  let w0 = Gc.minor_words () and m0 = major_collections () in
  let table, span =
    clocked (fun () -> Obs.Span.run "bench.table_cache.get" (fun () -> Table_cache.get ~grid p))
  in
  { table; span; minor_words = Gc.minor_words () -. w0; majors = major_collections () - m0 }

(* Whole tables for about [seconds] of wall time: another table starts
   only while it would end nearer to [seconds] than stopping now does (at
   least one). *)
let generate_for ~work ~seconds p =
  let rec go index elapsed acc =
    if index > 0 && elapsed +. (elapsed /. float_of_int index /. 2.) >= seconds then List.rev acc
    else
      let g = generate ~work ~index p in
      go (index + 1) (elapsed +. wall_s g.span) (g :: acc)
  in
  go 0 0. []

(* Points per second of [seconds_of] each table's span. *)
let ops_per_s seconds_of runs =
  let pts = List.fold_left (fun a g -> a + points g.table) 0 runs in
  let s = List.fold_left (fun a g -> a +. seconds_of g.span) 0. runs in
  float_of_int pts /. s

let check_table r device ~reference (t : Iv_table.t) =
  let n_vd = Array.length t.vd in
  let dims_ok =
    Array.length t.vg = Array.length reference.Iv_table.vg && n_vd = Array.length reference.vd
  in
  check r dims_ok "grid is %d x %d" (Array.length reference.vg) (Array.length reference.vd);
  if dims_ok then begin
    let agree name get =
      let scale =
        floor_frac
        *. Array.fold_left
             (fun a row -> Array.fold_left (fun a x -> Float.max a (Float.abs x)) a row)
             0. (get reference)
      in
      let bad = ref 0 in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j x ->
              if not (close ~rel:rel_tol ~floor:scale x (get reference).(i).(j)) then
                incr bad)
            row)
        (get t);
      check r (!bad = 0) "%s agrees with %s to %g relative (%d points outside)" name
        (reference_file device) rel_tol !bad
    in
    agree "current" (fun (x : Iv_table.t) -> x.current);
    agree "charge" (fun (x : Iv_table.t) -> x.charge)
  end;
  let q = List.length t.failed_points in
  check r (q <= max_quarantined device) "%d quarantined points (at most %d)" q
    (max_quarantined device);
  if device = Nominal then begin
    let ion = Iv_table.current_at t ~vg:0.5 ~vd:0.5 in
    check r
      (close ~rel:rel_tol ~floor:0. ion ion_expected)
      "Ion(VG=VD=0.5 V) = %.4g A, expected %.3g A to %g relative" ion ion_expected rel_tol;
    let j = n_vd - 1 in
    let best = ref 0 in
    Array.iteri (fun i _ -> if t.current.(i).(j) < t.current.(!best).(j) then best := i) t.vg;
    let vg_min = t.vg.(!best) in
    check r
      (Float.abs (t.vd.(j) -. 0.5) < 1e-12 && Float.abs (vg_min -. leak_vg_expected) <= leak_vg_tol)
      "leakage minimum at VD = %.3f V is VG = %.3f V, expected %.3f V +- %.4f" t.vd.(j) vg_min
      leak_vg_expected leak_vg_tol
  end

let table_digest (t : Iv_table.t) =
  float_digest (List.concat_map Array.to_list (Array.to_list t.current @ Array.to_list t.charge))

let run r device ~workload ~data ~work ~seconds ~trace =
  let p = params device in
  let reference = Pb_fixture.read_table (Filename.concat data (reference_file device)) in
  let sampler = Pb_speed.start () in
  line r "grid: %d VG (%.3f..%.3f V) x %d VD (0..%.2f V)" grid.Iv_table.n_vg grid.vg_min grid.vg_max
    grid.n_vd grid.vd_max;
  let check_runs runs =
    List.iter (fun g -> check_table r device ~reference g.table) runs;
    match runs with
    | first :: rest ->
      check r (List.for_all (fun g -> same_table first.table g.table) rest)
        "all %d tables of the run are bit-identical" (List.length runs);
      line r "output digest: %s" (table_digest first.table)
    | [] -> ()
  in
  let account runs =
    List.iter
      (fun g ->
        r.attempted <- r.attempted + points g.table;
        r.failed <- r.failed + List.length g.table.failed_points)
      runs
  in
  if not trace then begin
    let children = List.init (setup_repeats - 1) (fun _ -> child_setup ~workload) in
    let own_setup = setup_interval device in
    let runs = generate_for ~work ~seconds p in
    let sp = Pb_speed.stop sampler in
    check_runs runs;
    account runs;
    let per_point seconds_of =
      Array.of_list (List.map (fun g -> seconds_of g.span *. 1e3 /. float_of_int (points g.table)) runs)
    in
    let lat = per_point (ref_s sp) in
    let tail = Pb_tail.tail lat in
    line r "tables: %d, %d points each; per-point latency is a table's time over its points" (List.length runs)
      (points (List.hd runs).table);
    line r "tail latency: %s" (Pb_tail.describe tail);
    speed_lines r sp
      ~wall:
        (Printf.sprintf "setup_s %.4g, ops_per_s %.4g, p50_ms %.4g" (wall_s own_setup)
           (ops_per_s wall_s runs) (Pb_tail.median (per_point wall_s)));
    e2e r "setup_s" (Pb_tail.median (Array.of_list (children @ [ ref_s sp own_setup ])));
    e2e r "ops_per_s" (ops_per_s (ref_s sp) runs);
    e2e r "p50_ms" (Pb_tail.median lat);
    e2e r "tail_ms" tail.Pb_tail.value;
    e2e r "ok_frac" (1. -. ratio (float_of_int r.failed) (float_of_int r.attempted));
    e2e r "peak_rss_mb" (peak_rss_mb "self")
  end
  else begin
    (* The set-up traced for its self time (the warm-up minus its NEGF
       and Poisson work), then one table untraced and one traced: the
       same work both times. *)
    let own_setup, v = traced (fun () -> setup_interval device) in
    let geometry_ms = (wall_s own_setup *. 1e3) -. negf_ms v -. v.timer_ms "stack2d.solve" in
    let plain = generate ~work ~index:0 p in
    let g, v = traced (fun () -> generate ~work ~index:1 p) in
    let sp = Pb_speed.stop sampler in
    check_runs [ plain; g ];
    account [ plain; g ];
    let ops = float_of_int (points g.table) in
    registry_layers r v ~ops;
    layer r "setup.geometry_ms" geometry_ms;
    layer r "gc.minor_words_per_op" (g.minor_words /. ops);
    layer r "gc.major_collections" (float_of_int g.majors);
    layer r "trace.ops" ops;
    layer r "trace.overhead_frac" (1. -. (ops_per_s (ref_s sp) [ g ] /. ops_per_s (ref_s sp) [ plain ]));
    let span = v.timer_ms "bench.table_cache.get" in
    let covered = v.timer_ms "scf.solve" in
    let unattributed = 1. -. ratio covered span in
    layer r "trace.unattributed_frac" unattributed;
    check r (unattributed <= 0.05)
      "negf + poisson + scf self time covers %.1f %% of the Table_cache.get span (at least 95 %%)"
      (100. *. ratio covered span);
    layer r "machine.kernel_ms" (Pb_speed.kernel_ms sp);
    line r "machine speed: %s" (Pb_speed.describe sp);
    complete_layers r ~why:"layer idle in this workload"
  end
