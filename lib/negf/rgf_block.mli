(** Block (real-space, full atomistic basis) RGF — the reference solver the
    mode-space chain is validated against in the test suite.  A plain
    {!Cmatrix} implementation that allocates freely; no production sweep
    runs on it (the SCF loop uses the mode-space {!Rgf}).

    The device is a chain of identical-size blocks with nearest-block
    coupling; leads enter through explicit self-energy blocks on the first
    and last block. *)

type device = {
  blocks : Cmatrix.t array;  (** on-block Hamiltonians H_ii, size m × m *)
  couplings : Cmatrix.t array;  (** H_{i,i+1}, length [blocks - 1] *)
  sigma_l : Cmatrix.t;  (** retarded lead self-energy on block 0 *)
  sigma_r : Cmatrix.t;  (** retarded lead self-energy on the last block *)
}

val transmission : ?eta:float -> device -> float -> float
(** Coherent transmission [Tr(ΓL G ΓR G†)] at the given energy (eV). *)

type spectra = {
  t_coh : float;
  a1 : float array array;  (** [a1.(block).(orbital)]: source-injected
                               spectral-function diagonal, 1/eV *)
  a2 : float array array;  (** drain-injected diagonal *)
}

val spectra : ?eta:float -> device -> float -> spectra
(** Contact-resolved spectral functions by full block RGF (forward and
    backward sweeps); the local density of states per orbital is
    [(a1 + a2) / 2π].  Used to validate the mode-space charge
    integration against the atomistic reference. *)

val ideal_gnr_transmission : ?eta:float -> ?n_cells:int -> int -> float -> float
(** Transmission of an ideal (flat-potential) A-GNR of the given index,
    with semi-infinite GNR leads computed by Sancho–Rubio decimation: the
    exact staircase [T(E) = number of modes at E], used to validate both
    the band structure and the mode-space reduction. *)
