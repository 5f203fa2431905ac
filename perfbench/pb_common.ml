(* Shared plumbing of the benchmark: the run report, clocks, process
   facts, obs-snapshot readers and the output checks. *)

type metric = { name : string; value : float; unit_ : string }

type report = {
  mutable e2e : metric list;  (** reverse order *)
  mutable layer : metric list;  (** reverse order *)
  mutable lines : string list;  (** human-readable lines, reverse order *)
  mutable problems : string list;  (** failed output checks *)
  mutable attempted : int;
  mutable failed : int;
}

let report () =
  { e2e = []; layer = []; lines = []; problems = []; attempted = 0; failed = 0 }

let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

(* The metric inventory, in report order.  BENCHMARK.json lists the same
   names; a trace-0 run reports every end-to-end metric and a trace-1
   run every per-layer one. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("negf.site_charge_ms", "ms");
    ("negf.energies_per_eval", "count");
    ("negf.ns_per_energy", "ns");
    ("poisson.solves_per_scf", "count");
    ("poisson.ms", "ms");
    ("scf.solves", "count");
    ("scf.iterations_per_solve", "count");
    ("scf.iterations_max", "count");
    ("scf.charge_evals_per_solve", "count");
    ("scf.self_ms", "ms");
    ("robust.escalations", "count");
    ("robust.unrecovered", "count");
    ("setup.geometry_ms", "ms");
    ("circuit.pair_ms", "ms");
    ("circuit.inverter_ms", "ms");
    ("circuit.dc_solves_per_op", "count");
    ("circuit.newton_per_dc", "count");
    ("circuit.transient_steps_per_op", "count");
    ("circuit.solve_dc_ms", "ms");
    ("circuit.crossings_per_op", "count");
    ("circuit.transient_retries", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("serve.first_touch_ms", "ms");
    ("serve.iv_repeat_p50_ms", "ms");
    ("serve.table_p50_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.response_bytes_per_op", "bytes");
    ("serve.lru_hit_ratio", "ratio");
    ("serve.lru_evictions", "count");
    ("serve.coalesced_hits", "count");
    ("serve.rejected", "count");
    ("table.disk_hits", "count");
    ("table.mmap_hits", "count");
    ("table.memory_hits", "count");
    ("table.misses", "count");
    ("table.generates", "count");
    ("trace.ops", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio");
    ("machine.kernel_ms", "ms");
  ]

let add inventory name value =
  match List.assoc_opt name inventory with
  | Some unit_ -> { name; value; unit_ }
  | None -> invalid_arg ("unknown metric " ^ name)

let e2e r name value = r.e2e <- add e2e_metrics name value :: r.e2e

let layer r name value = r.layer <- add layer_metrics name value :: r.layer

(* An output check: recorded either way, fails the run when false. *)
let check r ok fmt =
  Printf.ksprintf
    (fun s ->
      line r "check %s: %s" (if ok then "ok  " else "FAIL") s;
      if not ok then r.problems <- s :: r.problems)
    fmt

(* Monotonic seconds at nanosecond resolution: a gettimeofday reading
   carries microseconds only, too coarse for a 50 us request. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [f]'s result and the clock readings around it, for Pb_speed. *)
let clocked f =
  let t0 = now () in
  let x = f () in
  (x, (t0, now ()))

let wall_s (a, b) = b -. a

(* Reference seconds of a clocked interval. *)
let ref_s sp (a, b) = Pb_speed.seconds sp a b

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set ([VmHWM]) of a process, MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    go ()

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Bit-for-bit table equality, key included. *)
let same_table (a : Iv_table.t) (b : Iv_table.t) =
  String.equal a.key b.key && same_floats a.vg b.vg && same_floats a.vd b.vd
  && Array.length a.current = Array.length b.current
  && Array.for_all2 same_floats a.current b.current
  && Array.for_all2 same_floats a.charge b.charge
  && a.failed_points = b.failed_points

(* Digest of a float sequence by exact bit pattern. *)
let float_digest xs =
  let b = Buffer.create (8 * List.length xs) in
  List.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Reading an [Obs] snapshot (or a daemon's counter dump) by name;
   absent metrics read as zero. *)
type view = {
  counter : string -> float;
  timer_ms : string -> float;
  timer_calls : string -> float;
  hist_max : string -> float;
}

let view_of_snapshot (s : Obs.snapshot) =
  let find l name = List.assoc_opt name l in
  {
    counter =
      (fun n -> Option.fold ~none:0. ~some:float_of_int (find s.Obs.snap_counters n));
    timer_ms =
      (fun n -> Option.fold ~none:0. ~some:(fun t -> t.Obs.total_ms) (find s.Obs.snap_timers n));
    timer_calls =
      (fun n ->
        Option.fold ~none:0.
          ~some:(fun t -> float_of_int t.Obs.t_calls)
          (find s.Obs.snap_timers n));
    hist_max =
      (fun n ->
        Option.fold ~none:0.
          ~some:(fun h -> float_of_int h.Obs.h_max)
          (find s.Obs.snap_histograms n));
  }

(* Counters only: what a serve daemon's [stats] op exports. *)
let view_of_counters counters =
  let zero _ = 0. in
  {
    counter = (fun n -> Option.value ~default:0. (List.assoc_opt n counters));
    timer_ms = zero;
    timer_calls = zero;
    hist_max = zero;
  }

let negf_ms v =
  v.timer_ms "negf.site_charge" +. v.timer_ms "negf.current"
  +. v.timer_ms "negf.transmission_spectrum"

(* Every per-layer metric the program's own registry can answer, read
   from one traced phase: negf, poisson, scf, robust, the circuit
   counters, the table-cache tiers and the serve daemon counters.
   Totals are over the phase; ratios are per their named denominator.
   A layer the workload leaves idle reads zero. *)
let registry_layers r v ~ops =
  let c = v.counter and ms = v.timer_ms in
  let solves = c "scf.solves" in
  let site_calls = v.timer_calls "negf.site_charge" in
  layer r "negf.site_charge_ms" (ms "negf.site_charge");
  layer r "negf.energies_per_eval" (ratio (c "rgf.spectra_energies") site_calls);
  layer r "negf.ns_per_energy"
    (ratio (ms "negf.site_charge" *. 1e6) (c "rgf.spectra_energies"));
  layer r "poisson.solves_per_scf" (ratio (c "stack2d.solves") solves);
  layer r "poisson.ms" (ms "stack2d.solve");
  layer r "scf.solves" solves;
  layer r "scf.iterations_per_solve" (ratio (c "scf.iterations") solves);
  layer r "scf.iterations_max" (v.hist_max "scf.iterations");
  layer r "scf.charge_evals_per_solve" (ratio (c "scf.charge_evals") solves);
  layer r "scf.self_ms"
    (Float.max 0. (ms "scf.solve" -. negf_ms v -. ms "stack2d.solve"));
  layer r "robust.escalations" (c "robust.scf.escalations");
  layer r "robust.unrecovered" (c "robust.scf.unrecovered");
  let dc = c "mna.dc_solves" in
  layer r "circuit.dc_solves_per_op" (ratio dc ops);
  layer r "circuit.newton_per_dc" (ratio (c "mna.newton_iterations") dc);
  layer r "circuit.transient_steps_per_op" (ratio (c "mna.transient_steps") ops);
  layer r "circuit.solve_dc_ms" (ms "mna.solve_dc");
  layer r "circuit.crossings_per_op" (ratio (c "measure.crossings") ops);
  layer r "circuit.transient_retries" (c "mna.transient_retries");
  layer r "serve.lru_hit_ratio" (ratio (c "serve.lru_hits") (c "serve.requests"));
  layer r "serve.lru_evictions" (c "serve.lru_evictions");
  layer r "serve.coalesced_hits" (c "serve.coalesced_hits");
  layer r "serve.rejected" (c "serve.rejected");
  List.iter
    (fun tier -> layer r ("table." ^ tier) (c ("table_cache." ^ tier)))
    [ "disk_hits"; "mmap_hits"; "memory_hits"; "misses"; "generates" ]

(* Run [f] with the global registry enabled and freshly reset; return
   its result with the snapshot taken right after. *)
let traced f =
  Obs.reset ();
  Obs.set_enabled Obs.global true;
  let x = Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global false) f in
  (x, view_of_snapshot (Obs.snapshot ()))

(* Relative agreement with an absolute floor: |a - b| <= rel * max(|b|, floor). *)
let close ~rel ~floor a b =
  Float.is_finite a && Float.abs (a -. b) <= rel *. Float.max (Float.abs b) floor

(* The machine's speed over the run, and the wall-clock figures the
   reference-second metrics were scaled from. *)
let speed_lines r sp ~wall =
  line r "machine speed: %s" (Pb_speed.describe sp);
  line r "wall clock (not normalised): %s" wall

(* A per-layer metric the workload did not report reads zero, with the
   reason on its own line. *)
let complete_layers r ~why =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.name = name) r.layer) then begin
        line r "layer %s: 0 (%s)" name why;
        layer r name 0.
      end)
    layer_metrics
