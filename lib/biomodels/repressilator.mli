(** Elowitz–Leibler repressilator — a third oscillator for stress-testing
    the deconvolution on sharper waveforms (extension):

    ṁ_i = α/(1 + p_{i−1}ⁿ) + α0 − m_i,   ṗ_i = β (m_i − p_i),  i ∈ {1,2,3}

    with indices cyclic. State layout: [m1; m2; m3; p1; p2; p3]. *)

open Numerics

type params = { alpha : float; alpha0 : float; beta : float; n : float; timescale : float }

val default_params : params
(** [timescale] rescales time so the period lands near 150 'minutes'. *)

val default_x0 : Vec.t
val period : ?t_max:float -> ?transient:float -> params -> x0:Vec.t -> float

val phase_profile : ?species:int -> params -> x0:Vec.t -> n_phi:int -> Vec.t * Vec.t
(** One post-transient period of the chosen state component (default m1). *)
