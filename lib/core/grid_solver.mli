(** Basis-free deconvolution directly on the phase grid: minimize

    ‖W^{1/2}(g − A f)‖² + λ ‖D₂ f‖²   subject to f ≥ 0,

    where f is the profile at every phase bin and D₂ is the discrete
    second-difference operator. This is the discretize-then-regularize
    alternative to the paper's spline representation (eq. 4); the
    `abl_representation` bench section compares them. *)

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
    bin (e.g. 201), solved by the same dual active-set QP as the spline
    estimator, with x ≥ 0 as identity rows. Its default cycle guard,
    2·(n + m) passes, covers the one pass per zero bin a narrow pulse
    needs; a QP that stalls at that cap raises {!Robust.Error.Error}
    [(Qp_stalled _)]. *)
