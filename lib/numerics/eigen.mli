(** Eigenvalue solvers for the small dense matrices used in band-structure
    calculations.

    Both reduce the matrix to a real symmetric tridiagonal one by
    Householder reflections and then run the implicit QL iteration on
    it; eigenvalues only.  A QL sweep that fails to split the matrix
    within 60 iterations raises {!Numerics_error.Stalled}. *)

val symmetric_values : Matrix.t -> float array
(** Eigenvalues of a real symmetric matrix, ascending.  [a] must be
    square; it is symmetrized on entry ([(a + aᵀ)/2]), so symmetry is the
    caller's responsibility. *)

val hermitian_values : Cmatrix.t -> float array
(** Eigenvalues of a complex Hermitian matrix, ascending.  The matrix is
    reduced by complex Householder reflections to a tridiagonal one whose
    off-diagonal moduli form the equivalent real tridiagonal; it is
    hermitized on entry ([(h + hᴴ)/2]). *)
