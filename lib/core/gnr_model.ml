type polarity = N_type | P_type

type extrinsic = { rs : float; rd : float; cgs_e : float; cgd_e : float }

let default_extrinsic ?(n_gnr = 4) ?(c_per_m = 0.05e-18 /. 1e-9) ?(contact_r = 10e3) () =
  (* 10 nm pitch per GNR; junction capacitance scales with the total
     contact width (Sec 3: 0.01-0.1 aF/nm x 40 nm). *)
  let contact_width = float_of_int n_gnr *. 10e-9 in
  let c = c_per_m *. contact_width in
  { rs = contact_r; rd = contact_r; cgs_e = c; cgd_e = c }

(* n-type quantities from the ambipolar table with source/drain exchange
   for vds < 0 (symmetric contacts): I(vgs, vds) = -C(vgs - vds, -vds),
   so gm = -Cx and gds = Cx + Cy there.  [ci] is the current interpolant
   over (VG, VD), read with one cell lookup for value and partials. *)
let n_current ci ~shift ~vgs ~vds out =
  if vds >= 0. then Interp.grid2_eval_grad ci (vgs +. shift) vds out
  else begin
    Interp.grid2_eval_grad ci (vgs +. shift -. vds) (-.vds) out;
    let fx = out.(1) and fy = out.(2) in
    out.(0) <- -.out.(0);
    out.(1) <- -.fx;
    out.(2) <- fx +. fy
  end

(* CGD,i = |dQ/dVDS|, CG,i = |dQ/dVGS|, CGS,i = CG,i - CGD,i (Sec 3),
   from one cell lookup of the charge interpolant [qi]; [out] needs three
   slots: the lookup fills all three before the capacitances overwrite
   the first two. *)
let n_caps qi ~shift ~vgs ~vds out =
  let swapped = vds < 0. in
  let vg_q, vd_q = if swapped then (vgs +. shift -. vds, -.vds) else (vgs +. shift, vds) in
  Interp.grid2_eval_grad qi vg_q vd_q out;
  let cgd = Float.abs out.(2) in
  let cg = Float.abs out.(1) in
  let cgs = Float.max 0. (cg -. cgd) in
  if swapped then begin
    out.(0) <- cgd;
    out.(1) <- cgs
  end
  else begin
    out.(0) <- cgs;
    out.(1) <- cgd
  end

let intrinsic ~polarity ~vt_shift:shift table =
  let ci, qi = Iv_table.interps table in
  match polarity with
  | N_type ->
    {
      Fet_model.name = "gnr-n";
      current = (fun ~vgs ~vds out -> n_current ci ~shift ~vgs ~vds out);
      caps = (fun ~vgs ~vds out -> n_caps qi ~shift ~vgs ~vds out);
    }
  | P_type ->
    (* I_p(vgs, vds) = -I_n(-vgs, -vds): the two sign flips cancel in the
       partials. *)
    {
      Fet_model.name = "gnr-p";
      current =
        (fun ~vgs ~vds out ->
          n_current ci ~shift ~vgs:(-.vgs) ~vds:(-.vds) out;
          out.(0) <- -.out.(0));
      caps = (fun ~vgs ~vds out -> n_caps qi ~shift ~vgs:(-.vgs) ~vds:(-.vds) out);
    }

(* Tables grouped by physical equality, in order of first appearance,
   with their multiplicities. *)
let group tables =
  List.fold_left
    (fun groups t ->
      if List.exists (fun (t', _) -> t' == t) groups then
        List.map (fun (t', k) -> if t' == t then (t', k + 1) else (t', k)) groups
      else groups @ [ (t, 1) ])
    [] tables

let array_fet ?name ~polarity ~vt_shift tables =
  if tables = [] then invalid_arg "Gnr_model.array_fet: empty array";
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "gnrfet-%s-x%d"
        (match polarity with N_type -> "n" | P_type -> "p")
        (List.length tables)
  in
  let member (t, k) =
    let m = intrinsic ~polarity ~vt_shift t in
    if k = 1 then m else Fet_model.scale m.Fet_model.name (float_of_int k) m
  in
  Fet_model.parallel name (List.map member (group tables))

let vt_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let vt_mutex = Mutex.create ()

let vt_nominal (table : Iv_table.t) =
  match Mutex.protect vt_mutex (fun () -> Hashtbl.find_opt vt_cache table.Iv_table.key) with
  | Some v -> v
  | None ->
    let v = Vt.extract_from_table table in
    Mutex.protect vt_mutex (fun () -> Hashtbl.replace vt_cache table.Iv_table.key v);
    v

let shift_for_vt table vt_target = vt_nominal table -. vt_target
