(** 2D finite-volume Poisson solver for the double-gate GNRFET stack.

    Solves [div (eps grad u) = rho] on the rectangle spanned by the node
    coordinates [xs] (transport direction) × [zs] (vertical), where [u] is
    the local mid-gap energy in volts (u = -V, see DESIGN.md).  The top and
    bottom rows are the gate electrodes (Dirichlet).  The source/drain
    contacts on the left/right sides support two styles:

    - [Plane]: the whole side is a metal plane (Dirichlet on the full
      column) — a thick wrap-around contact;
    - [Point]: the metal is end-bonded to the channel, so only the node on
      the channel sheet row is pinned and the rest of the side column is a
      zero-flux (Neumann) boundary.  This lets the gate field thin the
      Schottky junction, which is how the fabricated devices of the paper
      switch.

    The mobile channel charge enters as a sheet on one interior z-row.
    The system matrix depends only on the grid, permittivity and contact
    style, so it is factorized once (banded LU).  The self-consistent
    loop only needs the potential on the sheet row, which is linear in
    the sheet charge and in the four boundary values, so {!make} also
    precomputes the sheet-row Green's matrix G (one factorized solve per
    sheet node) and the response to each unit boundary value (four
    more); {!plane_solve} is then one matrix-vector product plus four
    scaled additions.  The full-grid {!solve} stays the reference. *)

type t

type contact_style = Plane | Point

type bc = { left : float; right : float; bottom : float; top : float }
(** Dirichlet values of [u] (volts) on the gates and contacts. *)

val make :
  ?contact_style:contact_style ->
  xs:float array ->
  zs:float array ->
  eps_r:(float -> float -> float) ->
  sheet_row:int ->
  unit ->
  t
(** [make ~xs ~zs ~eps_r ~sheet_row ()]: strictly increasing node
    coordinates (m); [eps_r x z] the relative permittivity at a point
    (sampled at cell faces); [sheet_row] the z-index (interior) of the row
    carrying the channel sheet charge.  Default style is [Point]. *)

val nx : t -> int

val nz : t -> int

val solve : t -> bc:bc -> sheet_charge:float array -> float array array
(** [solve t ~bc ~sheet_charge] where [sheet_charge.(i)] is the sheet
    density (C/m²) under interior x-node [i+1] (length [nx-2]); returns the
    full node potential [u.(i).(j)] in volts including boundary values,
    by a factorized banded solve over the whole grid. *)

val plane_solve : t -> bc:bc -> sheet_charge:float array -> float array
(** [plane_solve t ~bc ~sheet_charge] is
    [plane_potential t (solve t ~bc ~sheet_charge)] (equal to rounding)
    from the precomputed Green's matrix: O((nx-2)²) work, no banded
    solve.  Instrumented: bumps [stack2d.solves] and the [stack2d.solve]
    timer in {!Obs.global} (see docs/OBS.md). *)

val green_diag : t -> float array
(** Diagonal of the sheet-row Green's matrix: the potential (V) at
    interior x-node [i+1] of the sheet row per unit sheet density (C/m²)
    placed under that node alone (length [nx-2]).  Negative: u is minus
    the electrostatic potential. *)

val plane_potential : t -> float array array -> float array
(** Potential along the sheet row at the interior x nodes (length
    [nx - 2]): the channel mid-gap profile fed back to the NEGF solver. *)
