(** The penalized normal matrix of weighted least squares,

    minimize  Σ_m w_m (b_m − (A x)_m)²  +  λ xᵀ P x,

    the unconstrained core of the paper's cost (eq. 5). The solver's QP
    Hessian, the spectral λ selection's Gram side and the quality
    statistics ([Deconv.Quality.system]) are all built from it. *)

open Numerics

val normal_matrix : a:Mat.t -> weights:Vec.t -> penalty:Mat.t -> lambda:float -> Mat.t
(** [AᵀWA + λP] (the quadratic-form matrix of the problem). *)
