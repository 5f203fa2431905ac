(** Scalar recursive Green's function (RGF) solver for 1D mode-space chains.

    The device Hamiltonian is a tridiagonal chain: site energies
    [onsite.(i)] (local mid-gap + subband structure enters through the
    alternating hoppings), bonds [hopping.(i)] between sites [i] and
    [i+1], and complex contact self-energies attached to the first and
    last site.  O(n) per energy point. *)

type chain = {
  onsite : float array;  (** length n, eV *)
  hopping : float array;  (** length n-1, eV *)
  sigma_l : Complex.t;  (** retarded self-energy on site 0 *)
  sigma_r : Complex.t;  (** retarded self-energy on site n-1 *)
}

val gamma_of_sigma : Complex.t -> float
(** Broadening [Γ = i (Σ - Σ†) = -2 Im Σ]. *)

val transmission : ?eta:float -> chain -> float -> float
(** [transmission chain e]: coherent transmission at energy [e] (eV);
    [eta] (default 1e-6 eV) is the numerical broadening. *)

type spectra = {
  t_coh : float;  (** transmission *)
  a1 : float array;  (** source-injected spectral function diagonal, 1/eV *)
  a2 : float array;  (** drain-injected spectral function diagonal, 1/eV *)
}

val spectra : ?eta:float -> chain -> float -> spectra
(** Transmission and both contact-resolved spectral function diagonals in a
    single O(n) pass.  Satisfies [t_coh = ΓR a2 ... ] sum rules tested in
    the suite; the local density of states per site is
    [(a1 + a2) / 2π]. *)

(** {2 The allocation-free multi-mode kernel}

    [spectra] allocates ten length-n arrays per energy point and handles
    one chain; the charge integration instead gives each worker one
    {!workspace} and evaluates every mode chain of the device per energy
    with {!spectra_into}. *)

type workspace
(** Preallocated RGF scratch (Green's-function sweeps, column
    propagations, spectral diagonals) for a set of mode chains.  Grows
    on demand; safe to reuse across chain sets of different sizes.  Not
    thread-safe: one workspace per worker. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh workspace, optionally pre-sized for [hint] mode-sites
    (modes × sites). *)

val spectra_into : ?eta:float -> workspace -> chain array -> float -> unit
(** [spectra_into ws chains e] computes the spectral diagonals of every
    chain in [chains] (the modes of one device: at least one, all of the
    same length [n]) without allocating, and leaves them in [a1 ws] /
    [a2 ws], mode-major: mode [m], site [i] at index [m * n + i].  The
    left and right sweeps of all modes run interleaved in one pass, so
    their divisions overlap; each value is bit-identical to the
    corresponding {!spectra} diagonal.  Validation is cached per
    workspace (physical equality on [chains]), so per-energy calls on
    one mode array validate it once; an empty array, a malformed chain or
    chains of different lengths raise [Invalid_argument] on first
    contact. *)

val a1 : workspace -> float array
(** Source-injected spectral diagonals of the last {!spectra_into} call,
    valid on indices [0, modes * n) until the next call on this
    workspace.  The array may be longer and is re-allocated when the
    workspace grows — re-fetch it after each [spectra_into]. *)

val a2 : workspace -> float array
(** Drain-injected counterpart of {!a1}. *)
