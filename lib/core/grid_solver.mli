(** Basis-free deconvolution directly on the phase grid: minimize

    ‖W^{1/2}(g − A f)‖² + λ ‖D₂ f‖²   subject to f ≥ 0,

    where f is the profile at every phase bin and D₂ is the discrete
    second-difference operator. This is the discretize-then-regularize
    alternative to the paper's spline representation (eq. 4); the
    `abl_representation` bench compares them. *)

open Numerics

type estimate = {
  profile : Vec.t;  (** f̂ on the kernel's phase grid *)
  fitted : Vec.t;
  lambda : float;
  data_misfit : float;
  roughness : float;  (** ‖D₂f‖² (scaled to approximate ∫f″²) *)
}

val second_difference : int -> bin_width:float -> Mat.t
(** (n−2) × n matrix approximating f″ at interior nodes. *)

val solve :
  ?lambda:float ->
  ?use_positivity:bool ->
  Cellpop.Kernel.t ->
  measurements:Vec.t ->
  ?sigmas:Vec.t ->
  unit ->
  estimate
(** Default λ = 1e-4 and positivity on. The QP has one unknown per phase
    bin (e.g. 201), solved with the same interior-point machinery as the
    spline estimator; a QP that stalls at its iteration cap raises
    {!Robust.Error.Error} [(Qp_stalled _)]. *)
