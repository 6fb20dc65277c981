(** Second-derivative roughness penalty matrices: Ω_ij = ∫ ψ_i'' ψ_j'' dx
    (the regularizer of paper eq. 5). *)

open Numerics

val second_derivative : Basis.t -> Mat.t
(** Exact penalty matrix: for cubic splines ψ'' is piecewise linear between
    [basis.breaks], so the product is piecewise quadratic and 3-point
    Gauss–Legendre per break interval integrates it exactly. The result is
    symmetric positive semi-definite. *)

(* lint: allow R15 — the basis mass matrix ∫ψᵢψⱼ for function-space norms;
   test/test_spline.ml checks it against exact integrals *)
val gram : Basis.t -> Vec.t -> Mat.t
(** [gram basis grid] = trapezoid-weighted ∫ ψ_i ψ_j dx on the given grid
    (used for function-space norms in tests and diagnostics). *)
