(* Tests for the alpha-power CMOS compact model and node definitions. *)

open Support

let m = Node.n22.Node.nmos

let test_monotone_vgs () =
  let i v = Compact.drain_current m ~vgs:v ~vds:0.8 in
  let prev = ref (i 0.) in
  Array.iter
    (fun v ->
      let now = i v in
      Alcotest.(check bool) "monotone in vgs" true (now >= !prev);
      prev := now)
    (Vec.linspace 0.05 0.8 16)

let test_monotone_vds () =
  let i v = Compact.drain_current m ~vgs:0.8 ~vds:v in
  let prev = ref (i 0.) in
  Array.iter
    (fun v ->
      let now = i v in
      Alcotest.(check bool) "monotone in vds" true (now >= !prev -. 1e-15);
      prev := now)
    (Vec.linspace 0.02 1. 20)

let test_vds_antisymmetry () =
  (* Source/drain exchange: I(vgs, -vds) = -I(vgs + vds, vds). *)
  let i1 = Compact.drain_current m ~vgs:0.5 ~vds:(-0.3) in
  let i2 = -.Compact.drain_current m ~vgs:0.8 ~vds:0.3 in
  approx_rel ~rel:1e-9 "exchange symmetry" i2 i1;
  approx ~eps:1e-18 "zero at vds=0" 0. (Compact.drain_current m ~vgs:0.8 ~vds:0.)

let test_subthreshold_slope () =
  (* Slope should be n_ss * 60 mV/dec at room temperature. *)
  let vd = 0.8 in
  let i v = Compact.drain_current m ~vgs:v ~vds:vd in
  let v1 = m.Compact.vt -. 0.25 and v2 = m.Compact.vt -. 0.15 in
  let decades = Float.log10 (i v2 /. i v1) in
  let ss = (v2 -. v1) /. decades *. 1000. in
  let expected = m.Compact.n_ss *. 59.6 in
  approx ~eps:12. "subthreshold slope (mV/dec)" expected ss

let test_saturation () =
  (* Beyond vdsat the current grows only via channel-length modulation. *)
  let i1 = Compact.drain_current m ~vgs:0.8 ~vds:0.6 in
  let i2 = Compact.drain_current m ~vgs:0.8 ~vds:0.9 in
  let growth = (i2 -. i1) /. i1 in
  Alcotest.(check bool) "weak growth in saturation" true (growth < 0.1)

let test_pfet_mirror () =
  let n = Compact.fet ~name:"n" m in
  let p = Compact.pfet ~name:"p" m in
  approx_rel ~rel:1e-12 "p mirrors n"
    (-.Fet_model.id n ~vgs:0.6 ~vds:0.4)
    (Fet_model.id p ~vgs:(-0.6) ~vds:(-0.4))

(* The compact model's partials come from Fet_model.of_functions: the
   1e-6 V forward differences of drain_current, bit for bit, and so
   within 1e-3 of a central difference on this C1 model. *)
let test_compact_partials_fd () =
  let n = Compact.fet ~name:"n" m and p = Compact.pfet ~name:"p" m in
  let out = Array.make 3 nan in
  let step = 1e-6 and h = 1e-4 in
  List.iter
    (fun (vgs, vds) ->
      List.iter
        (fun ((model : Fet_model.t), sign) ->
          let id ~vgs ~vds =
            sign *. Compact.drain_current m ~vgs:(sign *. vgs) ~vds:(sign *. vds)
          in
          let vgs = sign *. vgs and vds = sign *. vds in
          model.current ~vgs ~vds out;
          let i0 = id ~vgs ~vds in
          Alcotest.(check (float 0.)) "current" i0 out.(0);
          Alcotest.(check (float 0.)) "gm = forward difference"
            ((id ~vgs:(vgs +. step) ~vds -. i0) /. step) out.(1);
          Alcotest.(check (float 0.)) "gds = forward difference"
            ((id ~vgs ~vds:(vds +. step) -. i0) /. step) out.(2);
          let central f = (f h -. f (-.h)) /. (2. *. h) in
          let gm = central (fun d -> id ~vgs:(vgs +. d) ~vds) in
          let gds = central (fun d -> id ~vgs ~vds:(vds +. d)) in
          let tol a = (1e-3 *. Float.abs a) +. (1e-9 *. Float.abs i0) in
          Alcotest.(check (float (tol gm))) "gm vs central" gm out.(1);
          Alcotest.(check (float (tol gds))) "gds vs central" gds out.(2))
        [ (n, 1.); (p, -1.) ])
    [ (0.6, 0.4); (0.2, 0.05); (0.8, 0.9); (0.45, -0.3); (0.1, 0.6) ]

let cmos_pair node =
  {
    Cells.nfet = Node.nfet node;
    pfet = Node.pfet node;
    ext = Cells.no_parasitics;
  }

let test_cmos_inverter_vtc () =
  let pair = cmos_pair Node.n22 in
  let v = Cells.vtc ~pair ~vdd:0.8 ~n:41 () in
  (* Rail-to-rail and monotone decreasing. *)
  Alcotest.(check bool) "high output" true (v.Snm.vout.(0) > 0.78);
  Alcotest.(check bool) "low output" true (v.Snm.vout.(40) < 0.02);
  let monotone = ref true in
  for i = 0 to 39 do
    if v.Snm.vout.(i + 1) > v.Snm.vout.(i) +. 1e-9 then monotone := false
  done;
  Alcotest.(check bool) "monotone" true !monotone;
  let snm = Snm.snm v v in
  Alcotest.(check bool) "CMOS-grade SNM at 0.8V" true (snm > 0.22 && snm < 0.4)

let test_cmos_inverter_metrics () =
  let pair = cmos_pair Node.n22 in
  let met = Metrics.inverter_metrics ~pair ~vdd:0.8 () in
  Alcotest.(check bool) "positive delay" true (met.Metrics.tp > 1e-13);
  Alcotest.(check bool) "sub-100ps FO4" true (met.Metrics.tp < 1e-10);
  Alcotest.(check bool) "leakage below on-power" true
    (met.Metrics.p_static < 1e-5);
  Alcotest.(check bool) "switching energy sane" true
    (met.Metrics.e_switch > 1e-18 && met.Metrics.e_switch < 1e-12);
  let f = Metrics.ro_frequency met ~stages:15 in
  Alcotest.(check bool) "RO frequency in the GHz range" true
    (f > 2e8 && f < 5e10)

let test_nodes_ordering () =
  (* Smaller nodes switch faster at the same supply. *)
  let f node =
    let met = Metrics.inverter_metrics ~pair:(cmos_pair node) ~vdd:0.8 () in
    Metrics.ro_frequency met ~stages:15
  in
  let f22 = f Node.n22 and f45 = f Node.n45 in
  Alcotest.(check bool) "22nm faster than 45nm" true (f22 > f45)

let suite =
  [
    Alcotest.test_case "monotone in vgs" `Quick test_monotone_vgs;
    Alcotest.test_case "monotone in vds" `Quick test_monotone_vds;
    Alcotest.test_case "vds antisymmetry" `Quick test_vds_antisymmetry;
    Alcotest.test_case "subthreshold slope" `Quick test_subthreshold_slope;
    Alcotest.test_case "saturation" `Quick test_saturation;
    Alcotest.test_case "pfet mirror" `Quick test_pfet_mirror;
    Alcotest.test_case "compact partials vs fd" `Quick test_compact_partials_fd;
    Alcotest.test_case "cmos inverter vtc" `Quick test_cmos_inverter_vtc;
    Alcotest.test_case "cmos inverter metrics" `Quick test_cmos_inverter_metrics;
    Alcotest.test_case "node ordering" `Quick test_nodes_ordering;
  ]
