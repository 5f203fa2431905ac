(* Cross-cutting physical-invariant property tests (qcheck): gauge
   invariance, reciprocity, superposition, monotonicity. *)

open Support

(* Random mode-space-like chain with a smooth random potential. *)
let random_chain_gen =
  QCheck.Gen.(
    let* n = 8 -- 24 in
    let* amp = float_bound_inclusive 0.4 in
    let* phase = float_bound_inclusive 6.28 in
    let* freq = float_bound_inclusive 0.8 in
    return (n, amp, phase, freq))

let chain_arb = QCheck.make random_chain_gen

let t1 = 1.6

let t2 = 1.3

let build_chain (n, amp, phase, freq) =
  let onsite =
    Array.init n (fun i -> amp *. sin ((freq *. float_of_int i) +. phase))
  in
  let hopping = Array.init (n - 1) (fun i -> if i mod 2 = 0 then t1 else t2) in
  let sigma = Self_energy.wideband ~gamma:1.0 in
  { Rgf.onsite; hopping; sigma_l = sigma; sigma_r = sigma }

let prop_transmission_bounded =
  qtest ~count:60 "0 <= T <= 1 for a single mode" chain_arb (fun spec ->
      let chain = build_chain spec in
      List.for_all
        (fun e ->
          let t = Rgf.transmission chain e in
          t >= -1e-12 && t <= 1. +. 1e-9)
        [ -1.5; -0.5; 0.; 0.5; 1.5 ])

let prop_gauge_invariance =
  qtest ~count:40 "T(E; u) = T(E+d; u+d) (wide-band contacts)" chain_arb
    (fun spec ->
      let chain = build_chain spec in
      let d = 0.37 in
      let shifted =
        { chain with Rgf.onsite = Array.map (fun u -> u +. d) chain.Rgf.onsite }
      in
      List.for_all
        (fun e ->
          let a = Rgf.transmission chain e in
          let b = Rgf.transmission shifted (e +. d) in
          Float.abs (a -. b) <= 1e-9 *. (1. +. a))
        [ -0.8; 0.1; 0.9 ])

let prop_reversal_invariance =
  qtest ~count:40 "T invariant under chain reversal" chain_arb (fun spec ->
      let chain = build_chain spec in
      let n = Array.length chain.Rgf.onsite in
      let reversed =
        {
          Rgf.onsite = Array.init n (fun i -> chain.Rgf.onsite.(n - 1 - i));
          hopping =
            Array.init (n - 1) (fun i -> chain.Rgf.hopping.(n - 2 - i));
          sigma_l = chain.Rgf.sigma_r;
          sigma_r = chain.Rgf.sigma_l;
        }
      in
      List.for_all
        (fun e ->
          let a = Rgf.transmission chain e in
          let b = Rgf.transmission reversed e in
          Float.abs (a -. b) <= 1e-9 *. (1. +. a))
        [ -0.6; 0.2; 1.1 ])

let prop_spectra_sum_rule =
  qtest ~count:40 "T = GammaL*a1(end) = GammaR*a2(0)" chain_arb (fun spec ->
      let chain = build_chain spec in
      let n = Array.length chain.Rgf.onsite in
      List.for_all
        (fun e ->
          let s = Rgf.spectra chain e in
          let gl = Rgf.gamma_of_sigma chain.Rgf.sigma_l in
          let gr = Rgf.gamma_of_sigma chain.Rgf.sigma_r in
          Float.abs (s.Rgf.t_coh -. (gl *. s.Rgf.a1.(n - 1))) <= 1e-9
          && Float.abs (s.Rgf.t_coh -. (gr *. s.Rgf.a2.(0))) <= 1e-9)
        [ -0.4; 0.3; 0.8 ])

let prop_fermi_monotone =
  qtest ~count:100 "fermi occupation decreasing in energy"
    QCheck.(pair (float_range (-1.) 1.) (float_range 0.001 0.2))
    (fun (e, de) ->
      let kt = 0.0259 in
      Fermi.occupation ~mu:0. ~kt e >= Fermi.occupation ~mu:0. ~kt (e +. de))

let prop_cmos_monotone =
  qtest ~count:100 "cmos drain current monotone in both biases"
    QCheck.(pair (float_range 0. 0.9) (float_range 0. 0.9))
    (fun (vgs, vds) ->
      let m = Node.n22.Node.nmos in
      let i = Compact.drain_current m ~vgs ~vds in
      Compact.drain_current m ~vgs:(vgs +. 0.01) ~vds >= i -. 1e-18
      && Compact.drain_current m ~vgs ~vds:(vds +. 0.01) >= i -. 1e-18)

let prop_snm_scaling =
  qtest ~count:40 "SNM scales with the VTC" (QCheck.float_range 0.5 2.)
    (fun scale ->
      let vdd = 1. in
      let vin = Vec.linspace 0. vdd 101 in
      let vout =
        Array.map (fun v -> vdd /. (1. +. exp (30. *. (v -. 0.5)))) vin
      in
      let v1 = { Snm.vin; vout } in
      let v2 =
        {
          Snm.vin = Array.map (fun v -> scale *. v) vin;
          vout = Array.map (fun v -> scale *. v) vout;
        }
      in
      let a = Snm.snm v1 v1 and b = Snm.snm v2 v2 in
      Float.abs (b -. (scale *. a)) <= (2e-2 *. scale) +. 1e-9)

let stack_fixture =
  lazy
    (Stack2d.make ~contact_style:Stack2d.Plane
       ~xs:(Vec.linspace 0. 10e-9 13)
       ~zs:(Vec.linspace (-1.5e-9) 1.5e-9 9)
       ~eps_r:(fun _ _ -> 3.9)
       ~sheet_row:4 ())

let prop_poisson_reciprocity =
  qtest ~count:25 "poisson response reciprocity r_ij = r_ji"
    QCheck.(pair (int_range 0 10) (int_range 0 10))
    (fun (i, j) ->
      let t = Lazy.force stack_fixture in
      let bc = { Stack2d.left = 0.; right = 0.; bottom = 0.; top = 0. } in
      let n = Stack2d.nx t - 2 in
      let probe k =
        let sc = Array.make n 0. in
        sc.(k) <- 1e-4;
        Stack2d.plane_potential t (Stack2d.solve t ~bc ~sheet_charge:sc)
      in
      let ui = probe i and uj = probe j in
      (* Green's-function symmetry of the (symmetric) FV operator, up to
         the cell-size weighting of the charge injection. *)
      let wi = ui.(j) /. uj.(j) and wj = uj.(i) /. ui.(i) in
      ignore wi;
      ignore wj;
      Float.abs (ui.(j) -. uj.(i)) <= 1e-6 *. (Float.abs ui.(i) +. 1e-12))

let prop_matrix_transpose_mul =
  qtest ~count:40 "(AB)^T = B^T A^T" QCheck.(int_range 2 8) (fun n ->
      let a = random_matrix n and b = random_matrix n in
      let lhs = Matrix.transpose (Matrix.mul a b) in
      let rhs = Matrix.mul (Matrix.transpose b) (Matrix.transpose a) in
      Matrix.max_abs (Matrix.sub lhs rhs) < 1e-12)

let prop_interp_table_model_consistency =
  qtest ~count:40 "table current continuous across vds=0"
    QCheck.(float_range (-0.2) 0.8)
    (fun vgs ->
      let table = synthetic_table () in
      let m = Gnr_model.intrinsic ~polarity:Gnr_model.N_type ~vt_shift:0. table in
      let eps = 1e-5 in
      let below = Fet_model.id m ~vgs ~vds:(-.eps) in
      let above = Fet_model.id m ~vgs ~vds:eps in
      Float.abs (above -. below) <= 1e-9 +. (0.5 *. Float.abs above))

let prop_rng_uniform_mean =
  qtest ~count:10 "rng uniform mean" QCheck.(int_range 1 1000) (fun seed ->
      let r = Rng.create seed in
      let n = 4000 in
      let acc = ref 0. in
      for _ = 1 to n do
        acc := !acc +. Rng.float r
      done;
      Float.abs ((!acc /. float_of_int n) -. 0.5) < 0.05)

let suite =
  [
    prop_transmission_bounded;
    prop_gauge_invariance;
    prop_reversal_invariance;
    prop_spectra_sum_rule;
    prop_fermi_monotone;
    prop_cmos_monotone;
    prop_snm_scaling;
    prop_poisson_reciprocity;
    prop_matrix_transpose_mul;
    prop_interp_table_model_consistency;
    prop_rng_uniform_mean;
  ]
