(** Mode-space reduction of the A-GNR Hamiltonian.

    Each conduction/valence subband pair is mapped onto an effective 1D
    dimer chain (two sites per unit cell, alternating hoppings [t1], [t2])
    whose dispersion [E(k) = ±sqrt(t1² + t2² + 2 t1 t2 cos ka)] reproduces
    the subband edges exactly: |t1 − t2| = subband minimum (half-gap) and
    t1 + t2 = subband maximum.  The chain carries both the electron and the
    hole band, so ambipolar Schottky-barrier transport emerges naturally.

    This is the "efficient computational algorithm" substitution documented
    in DESIGN.md: exact at the band edges, accurate through the gap (complex
    band), validated against the full real-space solver in the test suite. *)

type mode = {
  index : int;  (** subband number, 0 = lowest *)
  delta : float;  (** half-gap of this subband, eV *)
  emax : float;  (** subband maximum, eV *)
  t1 : float;  (** intra-cell hopping of the effective chain, eV *)
  t2 : float;  (** inter-cell hopping, eV *)
}

type t = {
  n : int;  (** GNR index *)
  gap : float;  (** fundamental gap, eV *)
  modes : mode array;  (** lowest subbands, ascending by [delta] *)
}

val reduce : ?nk:int -> ?n_modes:int -> int -> t
(** [reduce n] extracts the lowest [n_modes] (default 2) subbands of the
    index-[n] A-GNR (default hopping parameters) from its memoized band
    structure {!Bands.of_index} on [nk] (default 65) k-points. *)

val site_spacing : float
(** Longitudinal spacing between chain sites, m ([period / 2]). *)

val sites_for_length : float -> int
(** Number of chain sites covering a channel of the given length (m),
    rounded to full unit cells (even count, at least 4). *)
