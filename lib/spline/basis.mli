(** A common interface for spline bases on an interval.

    A basis is a finite family of functions {ψ_i}; the deconvolution
    estimate is the combination f_α(φ) = Σ α_i ψ_i(φ) (paper eq. 4). *)

open Numerics

type t = {
  name : string;
  size : int;  (** number of basis functions *)
  lo : float;
  hi : float;  (** supported interval *)
  eval : int -> float -> float;  (** ψ_i(x) *)
  deriv : int -> float -> float;  (** ψ_i'(x) *)
  deriv2 : int -> float -> float;  (** ψ_i''(x) *)
  breaks : Vec.t;
      (** breakpoints between which every ψ_i'' is polynomial of degree <= 1;
          used for exact penalty quadrature *)
}

val design : t -> Vec.t -> Mat.t
(** [design basis xs] has entry (m, i) = ψ_i(xs.(m)). *)

val combine_many : t -> Vec.t -> Vec.t -> Vec.t
