(** Direct dense linear algebra: factorizations, solves, least squares and
    symmetric eigendecomposition. All routines raise [Singular] when the
    input is numerically rank-deficient beyond recovery. *)

exception Singular of string

type lu
(** LU factorization with partial pivoting. *)

val lu_factor : Mat.t -> lu
(** Factor a square matrix. Raises {!Singular} on exact singularity. *)

val lu_solve : lu -> Vec.t -> Vec.t

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] solves the square system [a x = b] by LU. *)

val solve_many : Mat.t -> Mat.t -> Mat.t
(** [solve_many a b] solves [a X = b] column by column. *)

val inverse : Mat.t -> Mat.t
val det : Mat.t -> float

type cholesky

val cholesky_factor : Mat.t -> cholesky
(** Factor a symmetric positive-definite matrix (lower triangular).
    Raises {!Singular} if a pivot is not strictly positive — the
    numerical SPD test behind the condition number κ₁ of
    [Deconv.Quality.system], which is [infinity] exactly when this
    raises. *)

val cholesky_solve : cholesky -> Vec.t -> Vec.t

val cholesky_log_det : cholesky -> float
(** log-determinant of the factored SPD matrix (2·Σ log l_ii). *)

val solve_spd : Mat.t -> Vec.t -> Vec.t
(** Solve with a symmetric positive-definite matrix via Cholesky; falls back
    to LU if the Cholesky pivots fail (semi-definite boundary cases). *)

val qr_lstsq : Mat.t -> Vec.t -> Vec.t
(** Least-squares solution of an overdetermined system [a x ~ b]
    ([rows >= cols], full column rank) via Householder QR. *)

val null_space : Mat.t -> Mat.t
(** [null_space c] for a k × n matrix [c] of independent rows returns an
    n × (n − k) basis [z] of its null space ([c z = 0]) by variable
    elimination: Gauss–Jordan with complete pivoting picks k pivot
    columns, and each column of [z] sets one free coefficient to 1, the
    other free ones to 0, and solves the pivot ones from [c]. The rows of
    [z] at the free columns are therefore the identity, so [z] keeps the
    magnitudes of the coordinates it parametrizes (it is not
    orthonormal). Raises {!Singular} when the rows are dependent: a zero
    row, more rows than columns, or a pivot below 1e-12 once each row is
    scaled to unit max-norm. *)

val jacobi_eigen : ?tol:float -> ?max_sweeps:int -> Mat.t -> Vec.t * Mat.t
(** [jacobi_eigen a] for symmetric [a] returns [(eigenvalues, eigenvectors)]
    with eigenvectors in columns, sorted by descending eigenvalue. *)

val lower_solve : cholesky -> Vec.t -> Vec.t
(** Forward substitution against the lower-triangular factor: solves
    [L y = b]. *)

val lower_transpose_solve : cholesky -> Vec.t -> Vec.t
(** Back substitution against the transposed factor: solves [Lᵀ x = b]. *)

val generalized_eigen_spd : Mat.t -> Mat.t -> Vec.t * Mat.t
(** [generalized_eigen_spd s omega] solves the generalized symmetric
    eigenproblem [omega b = s b Γ] for SPD [s] and symmetric PSD [omega]:
    with [s = LLᵀ] (Cholesky) it diagonalizes [K = L⁻¹ omega L⁻ᵀ] by
    {!jacobi_eigen} and returns [(gamma, b)] where the columns of
    [b = L⁻ᵀU] satisfy [bᵀ s b = I] and [bᵀ omega b = diag gamma], with
    [gamma] descending and clamped at 0 (Ω is PSD by contract). This is the
    Demmler–Reinsch construction behind the spectral λ fast path. Raises
    {!Singular} when [s] is not numerically positive definite. *)

val singular_values : Mat.t -> Vec.t
(** Singular values of an arbitrary matrix, descending — computed as the
    square roots of the eigenvalues of the (smaller-side) Gram matrix, so
    accuracy is limited to ~sqrt(machine epsilon) for the smallest values.
    Sufficient for rank/identifiability analysis. *)
