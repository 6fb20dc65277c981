(** The forward model of paper eq. 3: G(t_m) = ∫ Q(φ, t_m) f(φ) dφ,
    discretized on the kernel's phase grid (midpoint rule). *)

open Numerics

val matrix_grid : Cellpop.Kernel.t -> Mat.t
(** (Nm × n_phi) matrix [A] with A(m,j) = Q(φ_j, t_m)·Δφ, so that
    [A f = G] for a profile sampled on the grid. Every row sums to ~1 (Q is
    a normalized density), so a constant profile passes through
    unchanged. *)

val matrix_basis : Cellpop.Kernel.t -> Spline.Basis.t -> Mat.t
(** (Nm × Nc) matrix [A·Ψ] mapping spline coefficients α directly to
    predicted measurements Ĝ (paper's Ĝ(t_m) = ∫Q(φ,t_m)f_α(φ)dφ). *)

val apply_fn : Cellpop.Kernel.t -> (float -> float) -> Vec.t
(** Forward model of a profile given as a function of phase. *)
