(** The physical constraints of paper §2.3 and §3.2, expressed as linear
    functionals of the spline coefficients α.

    - Division conservation (2.3, item 2): transcript numbers are conserved
      across division, R(1) = R(0) + R(φ_sst) per cell; averaged over
      p(φ_sst) this is ∫w(φ)f(φ)dφ = 0 with
      w(φ) = δ(1−φ) − 0.4·δ(φ) − 0.6·p(φ).
    - Rate continuity (3.2, eqs. 12–19): the transcript-count rate of change
      is continuous across division, R'(1) = R'(0) + R'(φ_sst); averaged:
      ∫w1 f dφ = ∫w2 f' dφ with w1 = β0 δ(1−φ) − β0 δ(φ) − β(φ)p(φ) and
      w2 = 0.4 δ(φ) + 0.6 p(φ) − δ(1−φ), β(φ) = 0.4/(1−φ).
    - Positivity (2.3, item 1): f_α(φ) ≥ 0, imposed on a grid.

    Dirac terms are evaluated analytically on basis functions; the
    p(φ)-weighted integrals use composite Simpson quadrature with 2000
    panels over p's ±10σ window. The density is tabulated once on the
    Simpson nodes per row (or per {!density_integral} call) and each
    integrand is sampled on the same nodes; nodes, products and the 1/4/2
    accumulation order are exactly {!Numerics.Integrate.simpson}'s, so every
    result is bit-identical to composite Simpson on h(φ)·p(φ).

    The rows depend only on (params, basis): {!Problem.create} builds them
    once per problem, and solves read the stored blocks. *)

open Numerics

val density_integral : Cellpop.Params.t -> (float -> float) -> float
(** ∫₀¹ h(φ)·p(φ) dφ with p the Gaussian density of φ_sst, by the
    tabulated Simpson rule above. *)

val beta0 : Cellpop.Params.t -> float
(** β₀ = ∫β(φ)p(φ)dφ (paper eq. 14). *)

val conservation_row : Cellpop.Params.t -> Spline.Basis.t -> Vec.t
(** Row vector c with c·α = 0 ⇔ f_α(1) − 0.4·f_α(0) − 0.6·∫p f_α = 0. *)

val rate_continuity_row : Cellpop.Params.t -> Spline.Basis.t -> Vec.t
(** Row vector c with c·α = 0 ⇔ paper eq. 17 (moved to one side):
    β₀f(1) − β₀f(0) − ∫βpf − 0.4f'(0) − 0.6∫pf' + f'(1) = 0. *)

val positivity_rows : Spline.Basis.t -> grid:Vec.t -> Mat.t
(** Inequality rows Ψ(φ_g) for f_α(φ_g) ≥ 0. *)

val residual_conservation : Cellpop.Params.t -> Spline.Basis.t -> Vec.t -> float
(** The conservation functional evaluated at coefficients α (should be ~0
    for a constrained estimate). *)

val residual_rate_continuity : Cellpop.Params.t -> Spline.Basis.t -> Vec.t -> float
