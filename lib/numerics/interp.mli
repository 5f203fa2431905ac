(** Interpolation on tabulated data: the backbone of the lookup-table circuit
    simulator. *)

val linear : xs:float array -> ys:float array -> float -> float
(** Piecewise-linear interpolation; clamps to the end values outside the
    table. [xs] must be strictly increasing with at least two points. *)

val linear_extrapolate : xs:float array -> ys:float array -> float -> float
(** Like {!linear} but extrapolates linearly beyond the table ends using the
    first/last segment slope. *)

type spline
(** Natural cubic spline. *)

val spline : xs:float array -> ys:float array -> spline
(** Requires strictly increasing [xs] with at least three points. *)

val spline_eval : spline -> float -> float
(** Clamps outside the knot range. *)

val spline_deriv : spline -> float -> float
(** First derivative of the spline (clamped outside the knot range). *)

type grid2
(** Function sampled on a rectilinear [xs] × [ys] grid. *)

val grid2 : xs:float array -> ys:float array -> values:float array array -> grid2
(** [values.(i).(j)] is the sample at [(xs.(i), ys.(j))]; both axes strictly
    increasing with at least two points each. *)

val grid2_eval : grid2 -> float -> float -> float
(** Bilinear interpolation, clamped to the grid rectangle. *)

val grid2_dx : grid2 -> float -> float -> float
(** Partial derivative along the first axis (of the bilinear interpolant,
    i.e. piecewise constant in x between nodes). *)

val grid2_dy : grid2 -> float -> float -> float
(** Partial derivative along the second axis. *)

val grid2_eval_grad : grid2 -> float -> float -> float array -> unit
(** [grid2_eval_grad g x y out] writes the value and both partials from
    one cell lookup: [out.(0)], [out.(1)] and [out.(2)] are bit-equal to
    [grid2_eval], [grid2_dx] and [grid2_dy] at [(x, y)], clamped edges
    included.  [out] needs at least three slots. *)
