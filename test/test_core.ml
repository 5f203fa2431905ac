(* Tests for the core multi-scale layer, using the synthetic fast table so
   no quantum simulation runs in the unit suite. *)

open Support

let table = synthetic_table ()

let test_intrinsic_polarity_mirror () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0.1 table in
  let pfet = Gnr_model.intrinsic ~polarity:Gnr_model.P_type ~vt_shift:0.1 table in
  List.iter
    (fun (vgs, vds) ->
      approx_rel ~rel:1e-12 "p mirrors n"
        (-.Fet_model.id nfet ~vgs ~vds)
        (Fet_model.id pfet ~vgs:(-.vgs) ~vds:(-.vds)))
    [ (0.4, 0.4); (0.1, 0.3); (0.6, 0.05) ]

let test_negative_vds_exchange () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  (* I(vgs, -vds) = -I(vgs + vds, vds) for a source/drain-symmetric
     device (our tables are queried with the exchanged bias). *)
  let direct = Fet_model.id nfet ~vgs:0.3 ~vds:(-0.2) in
  let exchanged = -.Fet_model.id nfet ~vgs:0.5 ~vds:0.2 in
  approx_rel ~rel:1e-12 "exchange" exchanged direct

let test_vt_shift_moves_curve () =
  let base = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  let shifted = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0.2 table in
  approx_rel ~rel:1e-12 "rigid shift"
    (Fet_model.id base ~vgs:0.6 ~vds:0.4)
    (Fet_model.id shifted ~vgs:0.4 ~vds:0.4)

let test_caps_nonnegative () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  List.iter
    (fun (vgs, vds) ->
      Alcotest.(check bool) "cgs >= 0" true (Fet_model.cgs nfet ~vgs ~vds >= 0.);
      Alcotest.(check bool) "cgd >= 0" true (Fet_model.cgd nfet ~vgs ~vds >= 0.))
    [ (0., 0.1); (0.4, 0.4); (0.8, 0.1); (-0.2, 0.6); (0.3, -0.3) ]

let test_array_composition () =
  let single = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
  let quad =
    Gnr_model.array_fet ~polarity:Gnr_model.N_type ~vt_shift:0.
      [ table; table; table; table ]
  in
  approx_rel ~rel:1e-12 "4x current"
    (4. *. Fet_model.id single ~vgs:0.5 ~vds:0.4)
    (Fet_model.id quad ~vgs:0.5 ~vds:0.4)

(* Analytic partials of the table model against central differences,
   at random biases whose table lookup (after the n/p mirror and the
   VDS < 0 exchange) sits inside one bilinear cell, 20 % away from its
   edges, so the difference quotient sees one cell too. *)
let test_model_partials_vs_central_difference () =
  let shift = 0.1 and h = 1e-4 in
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:shift table in
  let pfet = Gnr_model.intrinsic ~polarity:Gnr_model.P_type ~vt_shift:shift table in
  let in_cell axis =
    let k = Rng.int rng (Array.length axis - 1) in
    axis.(k) +. (Rng.uniform rng 0.2 0.8 *. (axis.(k + 1) -. axis.(k)))
  in
  let out = Array.make 3 nan in
  let check (m : Fet_model.t) ~vgs ~vds =
    m.current ~vgs ~vds out;
    let i0 = out.(0) and gm = out.(1) and gds = out.(2) in
    let central f = (f h -. f (-.h)) /. (2. *. h) in
    let fd_gm = central (fun d -> Fet_model.id m ~vgs:(vgs +. d) ~vds) in
    let fd_gds = central (fun d -> Fet_model.id m ~vgs ~vds:(vds +. d)) in
    let close name a fd =
      (* Rounding in the difference quotient is ~1e-16 |I| / h; the floor
         keeps it out of the relative check where a partial nearly
         vanishes. *)
      let tol = (1e-6 *. Float.max (Float.abs a) (Float.abs fd)) +. (1e-9 *. Float.abs i0) in
      if Float.abs (a -. fd) > tol then
        Alcotest.failf "%s %s at vgs %g vds %g: analytic %.12g, central %.12g" m.name name vgs
          vds a fd
    in
    close "gm" gm fd_gm;
    close "gds" gds fd_gds
  in
  for _ = 1 to 200 do
    let x = in_cell table.Iv_table.vg and y = in_cell table.Iv_table.vd in
    (* n-type lookups at (x, y): direct with vds = y, exchanged with
       vds = -y; the p-type mirror reads the same cells. *)
    List.iter
      (fun (vgs, vds) ->
        check nfet ~vgs ~vds;
        check pfet ~vgs:(-.vgs) ~vds:(-.vds))
      [ (x -. shift, y); (x -. shift -. y, -.y) ]
  done

(* The capacitances of one [caps] call against |dQ/dV| of the table as
   Sec 3 defines them, with the exchange for VDS < 0. *)
let test_model_caps_from_charge () =
  let nfet = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0.05 table in
  let pfet = Gnr_model.intrinsic ~polarity:Gnr_model.P_type ~vt_shift:0.05 table in
  let _, charge = Iv_table.interps table in
  let expected ~vgs ~vds =
    let vg, vd = if vds >= 0. then (vgs +. 0.05, vds) else (vgs +. 0.05 -. vds, -.vds) in
    let cgd = Float.abs (Interp.grid2_dy charge vg vd) in
    let cgs = Float.max 0. (Float.abs (Interp.grid2_dx charge vg vd) -. cgd) in
    if vds >= 0. then (cgs, cgd) else (cgd, cgs)
  in
  let out = Array.make 3 nan in
  for _ = 1 to 100 do
    let vgs = Rng.uniform rng (-0.4) 0.9 and vds = Rng.uniform rng (-0.7) 0.7 in
    let cgs, cgd = expected ~vgs ~vds in
    nfet.Fet_model.caps ~vgs ~vds out;
    Alcotest.(check (pair (float 0.) (float 0.))) "n caps" (cgs, cgd) (out.(0), out.(1));
    pfet.Fet_model.caps ~vgs:(-.vgs) ~vds:(-.vds) out;
    Alcotest.(check (pair (float 0.) (float 0.))) "p caps mirror n" (cgs, cgd) (out.(0), out.(1))
  done

(* array_fet evaluates each distinct table once, scaled by its count:
   bit-equal to the per-GNR sum for four equal tables, and within 1e-15
   of the summed magnitudes for one anomalous GNR beside three nominal. *)
let test_array_grouping () =
  let anomalous = synthetic_table ~i_on:1.3e-6 ~vg0:0.31 ~key:"anomalous" () in
  let outputs (m : Fet_model.t) ~vgs ~vds =
    let c = Array.make 3 nan and q = Array.make 3 nan in
    m.current ~vgs ~vds c;
    m.caps ~vgs ~vds q;
    [| c.(0); c.(1); c.(2); q.(0); q.(1) |]
  in
  List.iter
    (fun polarity ->
      let model tables = Gnr_model.array_fet ~polarity ~vt_shift:0.05 tables in
      let per_gnr tables =
        Fet_model.parallel "per-gnr"
          (List.map (Gnr_model.intrinsic ~polarity ~vt_shift:0.05) tables)
      in
      let equal4 = [ table; table; table; table ] in
      let mixed = [ anomalous; table; table; table ] in
      let grouped4 = model equal4 and summed4 = per_gnr equal4 in
      let grouped_mixed = model mixed and summed_mixed = per_gnr mixed in
      let single_a = Gnr_model.intrinsic ~polarity ~vt_shift:0.05 anomalous in
      let single_n = Gnr_model.intrinsic ~polarity ~vt_shift:0.05 table in
      for _ = 1 to 200 do
        let vgs = Rng.uniform rng (-0.9) 0.9 and vds = Rng.uniform rng (-0.7) 0.7 in
        let g = outputs grouped4 ~vgs ~vds and s = outputs summed4 ~vgs ~vds in
        Array.iteri
          (fun k v ->
            if not (Float.equal v s.(k)) then
              Alcotest.failf "4 equal tables, slot %d at (%g, %g): %h vs %h" k vgs vds v s.(k))
          g;
        let g = outputs grouped_mixed ~vgs ~vds and s = outputs summed_mixed ~vgs ~vds in
        let a = outputs single_a ~vgs ~vds and n = outputs single_n ~vgs ~vds in
        Array.iteri
          (fun k v ->
            let magnitude = Float.abs a.(k) +. (3. *. Float.abs n.(k)) in
            if Float.abs (v -. s.(k)) > 1e-15 *. magnitude then
              Alcotest.failf "mixed array, slot %d at (%g, %g): %.17g vs %.17g" k vgs vds v s.(k))
          g
      done)
    [ Gnr_model.N_type; Gnr_model.P_type ]

let test_vt_nominal_extraction () =
  (* The synthetic electron branch turns on near vg0 + vd/2 + ...; the
     extracted threshold must land in a physically sensible window and be
     consistent with shift_for_vt. *)
  let vt = Gnr_model.vt_nominal table in
  Alcotest.(check bool) "vt in range" true (vt > 0.05 && vt < 0.6);
  approx ~eps:1e-12 "shift identity" (vt -. 0.13) (Gnr_model.shift_for_vt table 0.13)

let test_default_extrinsic_values () =
  let e = Gnr_model.default_extrinsic () in
  (* 0.05 aF/nm x 40 nm = 2 aF; contacts 10k. *)
  approx_rel ~rel:1e-9 "cgs_e" 2e-18 e.Gnr_model.cgs_e;
  approx "rs" 10e3 e.Gnr_model.rs

let pair ?(vt = 0.13) () = Explore.pair_at table ~vt

let test_cells_vtc_rails () =
  let v = Cells.vtc ~pair:(pair ()) ~vdd:0.4 ~n:31 () in
  Alcotest.(check bool) "inverts" true (v.Snm.vout.(0) > v.Snm.vout.(30));
  Alcotest.(check bool) "high level" true (v.Snm.vout.(0) > 0.3);
  Alcotest.(check bool) "low level" true (v.Snm.vout.(30) < 0.1)

let test_inverter_metrics_sane () =
  let m = Metrics.inverter_metrics ~pair:(pair ()) ~vdd:0.4 () in
  Alcotest.(check bool) "tp > 0" true (m.Metrics.tp > 0.);
  Alcotest.(check bool) "tp_lh and tp_hl within 10x" true
    (m.Metrics.tp_lh /. m.Metrics.tp_hl < 10. && m.Metrics.tp_hl /. m.Metrics.tp_lh < 10.);
  Alcotest.(check bool) "snm in (0, vdd/2]" true (m.Metrics.snm > 0. && m.Metrics.snm <= 0.2);
  Alcotest.(check bool) "static power positive" true (m.Metrics.p_static > 0.);
  Alcotest.(check bool) "switching energy positive" true (m.Metrics.e_switch > 0.)

(* Inverter figures at three (VDD, VT) points of the synthetic-table
   pair, hard-coded from the finite-difference-Jacobian MNA that the
   analytic partials replaced: the Newton path changed, the converged
   waveforms must not. *)
let test_inverter_metrics_reference () =
  skip_if_fault_armed [ "mna.newton" ];
  List.iter
    (fun ((vdd, vt), (tp_lh, tp_hl, p_static, e_switch, snm)) ->
      let m = Metrics.inverter_metrics ~pair:(pair ~vt ()) ~vdd () in
      let at name = Printf.sprintf "%s at vdd %g, vt %g" name vdd vt in
      approx_rel ~rel:1e-9 (at "tp_lh") tp_lh m.Metrics.tp_lh;
      approx_rel ~rel:1e-9 (at "tp_hl") tp_hl m.Metrics.tp_hl;
      approx_rel ~rel:1e-9 (at "p_static") p_static m.Metrics.p_static;
      approx_rel ~rel:1e-9 (at "e_switch") e_switch m.Metrics.e_switch;
      approx_rel ~rel:1e-9 (at "snm") snm m.Metrics.snm)
    [
      ( (0.4, 0.1),
        ( 4.0784894497623528e-12,
          4.0784894496932509e-12,
          1.0783725833614755e-07,
          1.8315126548474038e-17,
          0.10563037335148373 ) );
      ( (0.6, 0.2),
        ( 4.9387049792775424e-12,
          4.9386128659912916e-12,
          5.0392142365331847e-07,
          1.1569880057779556e-17,
          0.22891800522342742 ) );
      ( (0.25, 0.05),
        ( 3.6880641953705701e-12,
          3.6880641953715136e-12,
          2.2686586896520364e-07,
          3.913110075687413e-18,
          0.036232630419246292 ) );
    ]

(* A 1 nF gate load per fanout replica keeps the DUT output from moving
   in every transient window: the measurement gives up with a typed
   error that Robust.classify (and so every quarantine) recognises. *)
let test_inverter_metrics_no_transition () =
  skip_if_fault_armed [ "mna.newton" ];
  let p = pair () in
  let load = { p with Cells.ext = { Cells.no_parasitics with Gnr_model.cgs_e = 1e-9 } } in
  match Metrics.inverter_metrics ~pair:p ~load ~vdd:0.4 () with
  | _ -> Alcotest.fail "expected no output transition"
  | exception (Robust_error.Error (Robust_error.Unrecovered { stage; attempts; _ }) as e) ->
    Alcotest.(check string) "stage" "metrics.inverter_metrics" stage;
    Alcotest.(check int) "attempts" 4 attempts;
    Alcotest.(check bool) "classified" true (Robust.classify e <> None);
    Alcotest.(check bool) "quarantineable" true (Montecarlo.quarantineable e)

let test_ro_formulas () =
  let m = Metrics.inverter_metrics ~pair:(pair ()) ~vdd:0.4 () in
  let f = Metrics.ro_frequency m ~stages:15 in
  approx_rel ~rel:1e-12 "f = 1/(2 N tp)" (1. /. (30. *. m.Metrics.tp)) f;
  let edp = Metrics.edp m ~stages:15 in
  Alcotest.(check bool) "edp positive" true (edp > 0.);
  approx_rel ~rel:1e-12 "dynamic power" (m.Metrics.e_switch *. f)
    (Metrics.dynamic_power m ~frequency:f)

let test_ring_oscillates () =
  let stages = Array.make 3 (pair ()) in
  match Metrics.ring_metrics ~stages ~vdd:0.4 ~cycles:10. () with
  | Some r ->
    Alcotest.(check bool) "frequency positive" true (r.Metrics.frequency > 0.);
    Alcotest.(check bool) "total >= dynamic" true
      (r.Metrics.p_total >= r.Metrics.p_dynamic -. 1e-18)
  | None -> Alcotest.fail "3-stage ring failed to oscillate"

let test_ring_validation () =
  check_raises_invalid "even ring" (fun () ->
      ignore (Cells.ring_oscillator ~stages:(Array.make 4 (pair ())) ~vdd:0.4 ()))

let test_explore_surface () =
  let s =
    Explore.surface ~stages:15
      ~vdds:[| 0.3; 0.4; 0.5 |]
      ~vts:[| 0.08; 0.13; 0.2 |]
      table
  in
  let m = Explore.min_edp s in
  Alcotest.(check bool) "min edp on grid" true
    (Array.exists (fun v -> v = m.Explore.vdd) s.Explore.vdds);
  (* Frequency increases with VDD at fixed VT. *)
  let f_low = s.Explore.points.(0).(1).Explore.frequency in
  let f_high = s.Explore.points.(2).(1).Explore.frequency in
  Alcotest.(check bool) "faster at higher vdd" true (f_high > f_low);
  let field = Explore.field s Explore.Frequency in
  approx ~eps:1e-12 "field extraction" f_low field.(0).(1)

let test_explore_contours_and_points () =
  let s =
    Explore.surface ~stages:15
      ~vdds:(Vec.linspace 0.25 0.55 4)
      ~vts:(Vec.linspace 0.05 0.25 4)
      table
  in
  let target =
    (* median frequency on the surface: guaranteed to have a contour *)
    let all =
      Array.to_list s.Explore.points
      |> List.concat_map (fun row ->
             Array.to_list (Array.map (fun p -> p.Explore.frequency) row))
    in
    List.nth (List.sort compare all) (List.length all / 2)
  in
  let cs = Explore.contours s Explore.Frequency ~level:target in
  Alcotest.(check bool) "some contour found" true (List.length cs > 0);
  match Explore.min_edp_at_frequency s ~ghz:(target /. 1e9) with
  | Some p -> Alcotest.(check bool) "edp positive" true (p.Explore.value > 0.)
  | None -> Alcotest.fail "no point on the frequency contour"

let test_variation_pct () =
  approx "pct up" 50. (Variation.pct ~nominal:2. 3.);
  approx "pct down" (-25.) (Variation.pct ~nominal:4. 3.);
  approx "pct zero nominal" 0. (Variation.pct ~nominal:0. 5.)

let suite =
  [
    Alcotest.test_case "polarity mirror" `Quick test_intrinsic_polarity_mirror;
    Alcotest.test_case "negative vds exchange" `Quick test_negative_vds_exchange;
    Alcotest.test_case "vt shift" `Quick test_vt_shift_moves_curve;
    Alcotest.test_case "caps nonnegative" `Quick test_caps_nonnegative;
    Alcotest.test_case "array composition" `Quick test_array_composition;
    Alcotest.test_case "model partials vs central difference" `Quick
      test_model_partials_vs_central_difference;
    Alcotest.test_case "model caps from charge" `Quick test_model_caps_from_charge;
    Alcotest.test_case "array grouping" `Quick test_array_grouping;
    Alcotest.test_case "vt extraction" `Quick test_vt_nominal_extraction;
    Alcotest.test_case "extrinsic defaults" `Quick test_default_extrinsic_values;
    Alcotest.test_case "vtc rails" `Quick test_cells_vtc_rails;
    Alcotest.test_case "inverter metrics" `Quick test_inverter_metrics_sane;
    Alcotest.test_case "inverter metrics reference" `Quick test_inverter_metrics_reference;
    Alcotest.test_case "inverter metrics no transition" `Quick
      test_inverter_metrics_no_transition;
    Alcotest.test_case "ro formulas" `Quick test_ro_formulas;
    Alcotest.test_case "ring oscillates" `Quick test_ring_oscillates;
    Alcotest.test_case "ring validation" `Quick test_ring_validation;
    Alcotest.test_case "explore surface" `Quick test_explore_surface;
    Alcotest.test_case "explore contours" `Quick test_explore_contours_and_points;
    Alcotest.test_case "variation pct" `Quick test_variation_pct;
  ]
