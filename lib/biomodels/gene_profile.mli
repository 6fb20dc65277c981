(** Parametric single-cell phase-expression profiles f(φ) used as ground
    truth in tests and ablations. All profiles are non-negative on [0, 1]. *)

open Numerics

type t = float -> float
(** A profile maps phase φ ∈ [0, 1] to expression concentration. *)

val constant : float -> t

val gaussian_pulse : center:float -> width:float -> height:float -> ?baseline:float -> unit -> t
(** A smooth bump. *)

val from_samples : phases:Vec.t -> values:Vec.t -> t
(** Monotone-cubic interpolation through sample points (clamped outside). *)

