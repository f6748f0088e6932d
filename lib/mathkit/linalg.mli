(** Numerical linear algebra on {!Matrix.t}.

    Everything the template attack and the DBDD estimator need:
    Cholesky and LU factorisations, linear solves, inverses and
    log-determinants.  Log-determinants matter because DBDD tracks the
    log-volume of an ellipsoid whose determinant under/overflows any
    float after a few hundred hints. *)

exception Singular
(** Raised when a factorisation meets a (numerically) singular or
    non-positive-definite matrix. *)

val cholesky : Matrix.t -> Matrix.t
(** Lower-triangular L with L L^T = A for symmetric positive-definite A.
    @raise Singular otherwise. *)

val solve : Matrix.t -> float array -> float array
(** Solve A x = b by LU with partial pivoting. *)

val inverse : Matrix.t -> Matrix.t
val logdet : Matrix.t -> float
(** Log of |det A| (natural log) via LU.
    @raise Singular on singular input. *)

val logdet_spd : Matrix.t -> float
(** Log-determinant via Cholesky; cheaper and stabler for SPD input. *)

val solve_spd : Matrix.t -> float array -> float array
(** Solve with a Cholesky factorisation (input must be SPD). *)

val regularize : Matrix.t -> float -> Matrix.t
(** [regularize a eps] adds [eps] to the diagonal — the standard fix
    for near-singular pooled covariances in template attacks. *)

val mahalanobis_sq : inv_cov:Matrix.t -> float array -> float array -> float
(** Squared Mahalanobis distance (x-mu)^T S^{-1} (x-mu). *)

val jacobi_eigen : ?max_sweeps:int -> Matrix.t -> float array * Matrix.t
(** Eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations: returns (eigenvalues, eigenvectors-as-columns), sorted
    by decreasing eigenvalue.  Used by the PCA trace compression.
    @raise Invalid_argument on non-square input. *)

val principal_components : Matrix.t -> k:int -> Matrix.t
(** The top-[k] eigenvectors (columns) of a symmetric matrix — the
    projection basis PCA uses.
    @raise Invalid_argument when k exceeds the dimension. *)
