(* The explore workload: Explore.surface called once per (VDD, VT) point
   over a seeded sample of the Fig 3(b) 13 x 13 grid, on the committed
   N = 12 fixture table.  NEGF, Poisson and table I/O stay idle; the MNA
   transient, Newton, interpolation and SNM work is all of it. *)

open Pb_common

let fixture_file = "fixture_n12_default.json"

let reference_file = "ref_explore.json"

(* The paper's plane, exactly as Explore.surface builds its defaults. *)
let vdds = Vec.linspace 0.1 0.7 13

let vts = Vec.linspace 0. 0.3 13

let stages = 15

(* Output-check tolerances against the committed reference: frequency
   and EDP to 2 % relative, SNM to 2 % relative with a 1 mV floor. *)
let rel_tol = 0.02

let snm_floor = 1e-3

(* The seeded operation sequence comes in blocks of 13 points: each
   block pairs every VDD row with a distinct VT column (a seeded
   permutation), in a seeded order.  A run of whole blocks visits every
   row and every column equally often, so its cost does not hang on which
   corner of the plane the seed favours; across blocks VT values repeat,
   as they do over the full surface. *)
let block = 13

(* Whole blocks every run completes whatever the time budget, so the
   output digest always covers the same prefix. *)
let min_blocks = 1

(* A traced run measures the same fixed prefix twice, untraced and
   traced, so its counts repeat exactly run to run. *)
let trace_ops = 2 * block

let setup_repeats = 41

let setup_warm_ups = 5

let sequence ~seed =
  let st = rng ~seed ~salt:0x3b in
  let next_block () =
    let rows = Array.init block Fun.id and cols = Array.init block Fun.id in
    shuffle st rows;
    shuffle st cols;
    Array.to_seq (Array.map2 (fun i j -> (i, j)) rows cols)
  in
  Seq.concat (Seq.forever next_block)

let point_of_surface table (i, j) =
  let s = Explore.surface ~stages ~vdds:[| vdds.(i) |] ~vts:[| vts.(j) |] table in
  s.Explore.points.(0).(0)

(* The same point through the two calls Explore.surface makes, each
   under its own span. *)
let point_of_calls table (i, j) =
  let vdd = vdds.(i) and vt = vts.(j) in
  let pair = Obs.Span.run "bench.explore.pair_at" (fun () -> Explore.pair_at table ~vt) in
  let m =
    Obs.Span.run "bench.metrics.inverter_metrics" (fun () ->
        Metrics.inverter_metrics ~pair ~vdd ())
  in
  {
    Explore.vdd;
    vt;
    frequency = Metrics.ro_frequency m ~stages;
    edp = Metrics.edp m ~stages;
    snm = m.Metrics.snm;
  }

type op = {
  index : int * int;
  point : Explore.point option;  (** [None] when the call raised *)
  span : float * float;
  minor_words : float;
}

let finite (p : Explore.point) =
  List.for_all Float.is_finite [ p.frequency; p.edp; p.snm ]

let run_op f idx =
  let w0 = Gc.minor_words () in
  let point, span =
    clocked (fun () ->
        match Obs.Span.run "bench.op" (fun () -> f idx) with
        | p -> Some p
        | exception _ -> None)
  in
  { index = idx; point; span; minor_words = Gc.minor_words () -. w0 }

(* Closed loop over the sequence, a whole block at a time, until [stop]
   says so, given the points so far and their wall seconds. *)
let drive ~seed ~stop f =
  let rec go seq n elapsed acc =
    if n mod block = 0 && stop n elapsed then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (idx, rest) ->
        let o = run_op f idx in
        go rest (n + 1) (elapsed +. wall_s o.span) (o :: acc)
  in
  go (sequence ~seed) 0 0. []

let ok o = match o.point with Some p -> finite p | None -> false

let check_ops r ~reference ops =
  let bad = ref 0 and errors = ref 0 in
  List.iter
    (fun o ->
      match o.point with
      | Some p when finite p ->
        let q : Explore.point = reference.(fst o.index).(snd o.index) in
        if
          not
            (close ~rel:rel_tol ~floor:0. p.frequency q.frequency
            && close ~rel:rel_tol ~floor:0. p.edp q.edp
            && close ~rel:rel_tol ~floor:snm_floor p.snm q.snm)
        then incr bad
      | Some _ | None -> incr errors)
    ops;
  check r (!errors = 0) "%d of %d points raised or were non-finite" !errors (List.length ops);
  check r (!bad = 0) "frequency, EDP and SNM agree with %s to %g relative (%d points outside)"
    reference_file rel_tol !bad

let digest ops =
  let prefix = List.filteri (fun k _ -> k < min_blocks * block) ops in
  float_digest
    (List.concat_map
       (fun o ->
         match o.point with
         | Some p -> [ p.vdd; p.vt; p.frequency; p.edp; p.snm ]
         | None -> [ nan ])
       prefix)

(* The reference lists the plane row by row, VDD outer, as regen writes
   it from Explore.surface. *)
let load_reference data =
  let pts = Array.of_list (Pb_fixture.read_points (Filename.concat data reference_file)) in
  let n = Array.length vts in
  if Array.length pts <> Array.length vdds * n then
    failwith (reference_file ^ ": expected the 13 x 13 plane");
  Array.init (Array.length vdds) (fun i -> Array.sub pts (i * n) n)

let account r ops =
  r.attempted <- r.attempted + List.length ops;
  r.failed <- r.failed + List.length (List.filter (fun o -> not (ok o)) ops)

(* Points per second of [seconds_of] each point's span. *)
let ops_per_s seconds_of ops =
  float_of_int (List.length ops) /. List.fold_left (fun a o -> a +. seconds_of o.span) 0. ops

let run r ~data ~seed ~seconds ~trace =
  let reference = load_reference data in
  let path = Filename.concat data fixture_file in
  let sampler = Pb_speed.start () in
  (* The first loads run slower while the heap grows: warm-up, untimed. *)
  for _ = 1 to setup_warm_ups do ignore (Pb_fixture.read_table path) done;
  let parses = Array.init setup_repeats (fun _ -> snd (clocked (fun () -> Pb_fixture.read_table path))) in
  let table = Pb_fixture.read_table path in
  let seq_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun (i, j) -> Printf.sprintf "%d,%d" i j) (List.of_seq (Seq.take 1000 (sequence ~seed))))))
  in
  line r "operation sequence digest (first 1000 points): %s" seq_digest;
  if not trace then begin
    (* Another block starts only while it would end nearer to [seconds]
       than stopping now does. *)
    let stop n elapsed =
      n >= min_blocks * block && elapsed +. (elapsed /. float_of_int n *. float_of_int block /. 2.) >= seconds
    in
    let ops = drive ~seed ~stop (point_of_surface table) in
    let sp = Pb_speed.stop sampler in
    check_ops r ~reference ops;
    account r ops;
    line r "output digest (first %d points): %s" (min_blocks * block) (digest ops);
    let latencies seconds_of = Array.of_list (List.map (fun o -> seconds_of o.span *. 1e3) ops) in
    let lat = latencies (ref_s sp) in
    let tail = Pb_tail.tail lat in
    line r "points: %d; tail latency: %s" (List.length ops) (Pb_tail.describe tail);
    speed_lines r sp
      ~wall:
        (Printf.sprintf "setup_s %.4g, ops_per_s %.4g, p50_ms %.4g"
           (Pb_tail.median (Array.map wall_s parses))
           (ops_per_s wall_s ops) (Pb_tail.median (latencies wall_s)));
    e2e r "setup_s" (Pb_tail.median (Array.map (ref_s sp) parses));
    e2e r "ops_per_s" (ops_per_s (ref_s sp) ops);
    e2e r "p50_ms" (Pb_tail.median lat);
    e2e r "tail_ms" tail.Pb_tail.value;
    e2e r "ok_frac" (1. -. ratio (float_of_int r.failed) (float_of_int r.attempted));
    e2e r "peak_rss_mb" (peak_rss_mb "self")
  end
  else begin
    let stop n _ = n >= trace_ops in
    let plain = drive ~seed ~stop (point_of_surface table) in
    let m0 = major_collections () in
    let calls, v = traced (fun () -> drive ~seed ~stop (point_of_calls table)) in
    let majors = major_collections () - m0 in
    let sp = Pb_speed.stop sampler in
    check_ops r ~reference (plain @ calls);
    account r (plain @ calls);
    check r
      (List.for_all2
         (fun a b ->
           match (a.point, b.point) with
           | Some p, Some q ->
             same_floats [| p.frequency; p.edp; p.snm |] [| q.frequency; q.edp; q.snm |]
           | _ -> false)
         plain calls)
      "Explore.pair_at + Metrics.inverter_metrics equal Explore.surface bit for bit on %d points"
      trace_ops;
    let ops = float_of_int trace_ops in
    registry_layers r v ~ops;
    let pair = v.timer_ms "bench.explore.pair_at" in
    let inverter = v.timer_ms "bench.metrics.inverter_metrics" in
    layer r "circuit.pair_ms" pair;
    layer r "circuit.inverter_ms" (Float.max 0. (inverter -. v.timer_ms "mna.solve_dc"));
    layer r "gc.minor_words_per_op"
      (List.fold_left (fun a o -> a +. o.minor_words) 0. calls /. ops);
    layer r "gc.major_collections" (float_of_int majors);
    layer r "trace.ops" ops;
    layer r "trace.overhead_frac" (1. -. (ops_per_s (ref_s sp) calls /. ops_per_s (ref_s sp) plain));
    layer r "trace.unattributed_frac" (1. -. ratio (pair +. inverter) (v.timer_ms "bench.op"));
    layer r "machine.kernel_ms" (Pb_speed.kernel_ms sp);
    line r "machine speed: %s" (Pb_speed.describe sp);
    complete_layers r ~why:"layer idle in this workload"
  end
