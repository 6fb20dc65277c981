(** Demmler–Reinsch spectral reparameterization of the penalized
    least-squares family [(AᵀWA + λΩ) x = AᵀWg].

    One generalized symmetric eigendecomposition of the pencil
    [(AᵀWA + λ₀Ω, Ω)] — Cholesky of the SPD side plus
    {!Numerics.Linalg.jacobi_eigen} — yields a basis [B] with
    [Bᵀ(AᵀWA + λ₀Ω)B = I] and [BᵀΩB = Γ]. In that basis every λ candidate
    is a diagonal rescale: with [c = Bᵀ(AᵀWg)] and
    [dᵢ(λ) = 1/(1 + (λ−λ₀)γᵢ)],

    - solution        [x(λ) = B (d ∘ c)]                          (O(n²))
    - edf = tr(H)     [Σ dᵢ(1 − λ₀γᵢ)]                            (O(n))
    - weighted RSS    [gᵀWg − Σ (2 − dᵢ(1−λ₀γᵢ)) dᵢ cᵢ²]          (O(n))
    - roughness xᵀΩx  [Σ γᵢ dᵢ² cᵢ²]                              (O(n))

    so a k-candidate λ sweep costs one factorization plus k cheap
    evaluations instead of k Cholesky solves. The anchor [λ₀] makes the
    factored side SPD even when [AᵀWA] alone is rank-deficient (k-fold
    training sets smaller than the basis); [λ₀ = 0] recovers the classic
    Demmler–Reinsch basis. The reparameterization is algebraically exact
    for any anchor — agreement with the direct path is limited only by
    rounding. *)

open Numerics

type t = {
  basis : Mat.t;  (** [B]: columns are the Demmler–Reinsch directions *)
  gamma : Vec.t;  (** generalized eigenvalues [Γ], descending, ≥ 0 *)
  anchor : float;  (** [λ₀] of the factored SPD side [AᵀWA + λ₀Ω] *)
}

type projection = {
  coeff : Vec.t;  (** [c = Bᵀ(AᵀWg)] — the data in spectral coordinates *)
  yty : float;  (** [gᵀWg], the constant term of the weighted RSS *)
}

type scores = { rss : float; roughness : float; edf : float }

val size : t -> int

val factorize : ?anchor:float -> gram:Mat.t -> penalty:Mat.t -> unit -> t
(** Factor the pencil at the given anchor (default 0, the classic basis).
    [gram] is [AᵀWA], [penalty] is [Ω]. Raises {!Linalg.Singular} when
    [gram + anchor·penalty] is not numerically SPD. *)

val auto_anchor : gram:Mat.t -> penalty:Mat.t -> float
(** Scale-aware strictly positive anchor (~1e-4 of the Gram's magnitude in
    penalty units) — SPD-safe for rank-deficient Gram sides while keeping
    the shifted weights well-conditioned across the candidate grid. *)

val factorize_auto : gram:Mat.t -> penalty:Mat.t -> t
(** {!factorize} at {!auto_anchor}. *)

val project : t -> rhs:Vec.t -> yty:float -> projection
(** [rhs] is [AᵀWg]; [yty] is [gᵀWg]. *)

val project_data : t -> a:Mat.t -> weights:Vec.t -> b:Vec.t -> projection
(** Build the projection straight from the design, weights and data. *)

val solution : t -> projection -> lambda:float -> Vec.t
(** Unconstrained minimizer [x(λ)] — identical (up to rounding) to solving
    [(AᵀWA + λΩ) x = AᵀWg] directly. Raises {!Linalg.Singular} exactly when
    the direct factorization would (singular shifted system). *)

val evaluate : t -> projection -> lambda:float -> scores
(** Misfit/roughness/edf at a candidate in O(n), without forming the
    solution. [rss] is the weighted residual sum of squares, clamped at 0
    against cancellation near interpolation. Raises like {!solution}. *)

val factorize_problem : a:Mat.t -> weights:Vec.t -> penalty:Mat.t -> t
(** Factorization for the weighted problem [(AᵀWA, Ω)] at the automatic
    anchor. Raises {!Linalg.Singular} when even the anchored side cannot
    be factored. *)
