(** Alpha-power-law MOSFET compact model (Sakurai–Newton form) with a
    softplus-blended subthreshold region.

    This is the in-repo stand-in for the PTM model cards used by the
    paper's Table 1 (see the substitution log in DESIGN.md): it reproduces
    the behaviours the comparison rests on — near-linear Idsat versus VDD
    overdrive, ~100 mV/dec subthreshold leakage, velocity-saturated alpha
    ≈ 1.2–1.4, and CMOS-grade noise margins. *)

type t = {
  vt : float;  (** threshold voltage, V *)
  k : float;  (** drive strength, A / V^alpha *)
  alpha : float;  (** velocity-saturation index *)
  n_ss : float;  (** subthreshold ideality (SS = n_ss * 60 mV/dec at 300K) *)
  lambda : float;  (** channel-length modulation, 1/V *)
  vdsat_k : float;  (** Vdsat = vdsat_k * overdrive^(alpha/2) *)
}

val drain_current : t -> vgs:float -> vds:float -> float
(** NMOS drain current; negative [vds] handled by source/drain exchange
    (symmetric device). Smooth (C¹) across the subthreshold-to-on and
    linear-to-saturation boundaries. *)

val fet : name:string -> ?cgs:float -> ?cgd:float -> t -> Fet_model.t
(** Wrap as a circuit model with constant intrinsic capacitances; the
    partials come from {!Fet_model.of_functions} (forward differences). *)

val pfet : name:string -> ?cgs:float -> ?cgd:float -> t -> Fet_model.t
(** Complementary device: [id_p vgs vds = -. id_n (-vgs) (-vds)]. *)
