(** A-GNR band structure from the tight-binding Bloch Hamiltonian. *)

type t = private {
  n : int;
  ka : float array;  (** Bloch phases sampled over [\[0, pi\]] *)
  energies : float array array;  (** [energies.(k).(band)], ascending, eV *)
}

val compute : ?nk:int -> Tight_binding.t -> t
(** Sample the band structure on [nk] (default 33) k-points from 0 to pi. *)

val band_gap : t -> float
(** Fundamental gap [2 * min |E|] in eV (electron–hole symmetric spectrum). *)

val conduction_subbands : t -> int -> (float * float) array
(** [conduction_subbands b m] returns, for the lowest [m] conduction
    subbands, the pair (band minimum, band maximum) in eV.  Subband [p] is
    the p-th positive eigenvalue at each k, tracked by sorted order. *)

val of_index : ?nk:int -> int -> t
(** Band structure of the A-GNR with the given index (default hopping
    parameters) on [nk] (default 65) k-points, memoized per
    [(index, nk)] for the life of the process. *)

val gap_of_index : ?nk:int -> int -> float
(** Convenience: [band_gap (of_index ?nk n)], in eV. *)
