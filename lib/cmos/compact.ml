type t = {
  vt : float;
  k : float;
  alpha : float;
  n_ss : float;
  lambda : float;
  vdsat_k : float;
}

let thermal_voltage = Const.kb_ev *. Const.room_temperature

(* Softplus overdrive: exponential below vt (subthreshold slope
   n_ss * kT ln10 per decade), asymptotically vgs - vt above. *)
let effective_overdrive m vgs =
  let nvt = m.n_ss *. m.alpha *. thermal_voltage in
  let x = (vgs -. m.vt) /. nvt in
  if x > 35. then vgs -. m.vt else nvt *. log1p (exp x)

let rec drain_current m ~vgs ~vds =
  if vds < 0. then -.drain_current m ~vgs:(vgs -. vds) ~vds:(-.vds)
  else begin
    let vov = effective_overdrive m vgs in
    let idsat = m.k *. (vov ** m.alpha) in
    let vdsat = Float.max 1e-3 (m.vdsat_k *. (vov ** (m.alpha /. 2.))) in
    let shape =
      if vds >= vdsat then 1.
      else begin
        let r = vds /. vdsat in
        r *. (2. -. r)
      end
    in
    idsat *. shape *. (1. +. (m.lambda *. vds))
  end

let fet ~name ?(cgs = 0.) ?(cgd = 0.) m =
  Fet_model.of_functions ~name
    ~id:(fun ~vgs ~vds -> drain_current m ~vgs ~vds)
    ~cgs:(fun ~vgs:_ ~vds:_ -> cgs)
    ~cgd:(fun ~vgs:_ ~vds:_ -> cgd)

let pfet ~name ?(cgs = 0.) ?(cgd = 0.) m =
  Fet_model.of_functions ~name
    ~id:(fun ~vgs ~vds -> -.drain_current m ~vgs:(-.vgs) ~vds:(-.vds))
    ~cgs:(fun ~vgs:_ ~vds:_ -> cgs)
    ~cgd:(fun ~vgs:_ ~vds:_ -> cgd)
