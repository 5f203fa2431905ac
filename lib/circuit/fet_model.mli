(** Abstract large-signal FET model consumed by the circuit engine.

    A model answers for the *intrinsic* device between its gate, drain and
    source terminals; extrinsic parasitics (contact resistances, junction
    capacitances) are added as explicit circuit elements by the cell
    builders, following Fig 3(a) of the paper.

    A model is two calls that write into a caller buffer of at least
    three slots: the current with its two partials, and both
    capacitances.  The circuit engine stamps its Newton Jacobian from the
    partials (the source column is [-(gm + gds)]), so a table model
    answers one interpolant-cell lookup per Newton evaluation and no
    finite difference is taken there. *)

type t = {
  name : string;
  current : vgs:float -> vds:float -> float array -> unit;
      (** [current ~vgs ~vds out] writes the static drain current (A,
          defined for both signs of [vds]) to [out.(0)], ∂I/∂VGS to
          [out.(1)] and ∂I/∂VDS to [out.(2)] (S) *)
  caps : vgs:float -> vds:float -> float array -> unit;
      (** [caps ~vgs ~vds out] writes the intrinsic gate–source and
          gate–drain capacitances (F, non-negative) to [out.(0)] and
          [out.(1)]; [out.(2)] may be used as scratch *)
}

val id : t -> vgs:float -> vds:float -> float
(** Drain current alone, from one [current] call. *)

val cgs : t -> vgs:float -> vds:float -> float
(** Gate–source capacitance alone, from one [caps] call. *)

val cgd : t -> vgs:float -> vds:float -> float
(** Gate–drain capacitance alone, from one [caps] call. *)

val of_functions :
  name:string ->
  id:(vgs:float -> vds:float -> float) ->
  cgs:(vgs:float -> vds:float -> float) ->
  cgd:(vgs:float -> vds:float -> float) ->
  t
(** Model from plain functions, for devices with no closed-form partials
    (the compact MOSFET, test devices): ∂I/∂VGS and ∂I/∂VDS are forward
    differences of [id] with a 1e-6 V step, three [id] calls per
    [current] call. *)

val parallel : string -> t list -> t
(** Terminal-wise parallel composition: currents, partials and
    capacitances add, summed in list order (a one-element list gives
    that model, renamed).  Used for the 4-GNR array channel, where each
    GNR may carry its own variation or defect. *)

val scale : string -> float -> t -> t
(** Multiply currents, partials and capacitances (device width scaling,
    or [k] identical GNRs evaluated once). *)
