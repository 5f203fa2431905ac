(** Large-signal circuit models of extrinsic GNRFETs, built from the
    quantum-transport lookup tables (Fig 3(a) of the paper).

    A GNRFET channel is an array of [n_gnr] (nominally 4) parallel GNRs on
    a 10 nm pitch; each GNR may carry its own width variation or charge
    impurity, which is how the 1-of-4 / 4-of-4 scenarios of Sections 4–5
    are expressed.  n-type and p-type devices are obtained from the
    ambipolar characteristic by gate work-function offset and mirroring,
    as the paper describes. *)

type polarity = N_type | P_type

type extrinsic = {
  rs : float;  (** source contact resistance, Ω (paper: 1k–100k, nominal 10k) *)
  rd : float;  (** drain contact resistance, Ω *)
  cgs_e : float;  (** extrinsic gate–source junction capacitance, F *)
  cgd_e : float;  (** extrinsic gate–drain junction capacitance, F *)
}

val default_extrinsic : ?n_gnr:int -> ?c_per_m:float -> ?contact_r:float -> unit -> extrinsic
(** Paper values: junction capacitance [c_per_m] = 0.05 aF/nm (mid-range of
    the quoted 0.01–0.1 aF/nm) times the array contact width
    ([n_gnr] × 10 nm pitch); [contact_r] = 10 kΩ. *)

val intrinsic :
  polarity:polarity -> vt_shift:float -> Iv_table.t -> Fet_model.t
(** Model of a single intrinsic GNR.  [vt_shift] is the gate work-function
    offset (V): positive values shift the I–V left (lower VT), exactly as
    in Fig 2(b).  Negative VDS is handled by source/drain exchange
    symmetry; the p-type model is the complementary mirror image.  The
    table's current and charge interpolants are resolved once, here
    ({!Iv_table.interps}); each [current] or [caps] call is then one
    interpolant-cell lookup ({!Interp.grid2_eval_grad}) with the mirror
    and exchange applied to the partials. *)

val array_fet :
  ?name:string ->
  polarity:polarity ->
  vt_shift:float ->
  Iv_table.t list ->
  Fet_model.t
(** Parallel array of per-GNR tables (one entry per GNR, so heterogeneous
    arrays express single-GNR anomalies).  Tables are grouped by physical
    equality and each distinct table is evaluated once, scaled by its
    multiplicity ({!Fet_model.scale}); the groups are summed in order of
    first appearance ({!Fet_model.parallel}). *)

val vt_nominal : Iv_table.t -> float
(** Threshold voltage of the (unshifted) table — memoized; the circuit VT
    of a device with [vt_shift] is [vt_nominal - vt_shift]. *)

val shift_for_vt : Iv_table.t -> float -> float
(** Offset needed to place the device threshold at the given VT. *)
