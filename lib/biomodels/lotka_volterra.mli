(** The classical Lotka–Volterra system used by the paper (§4.1, eqs.
    20–21) as a 'toy' cell-cycle-regulated biological oscillator:

    ẋ1 = x1 (a − b x2),   ẋ2 = x2 (c x1 − d)

    x1 and x2 are two chemical species which bind and convert x1 to x2.
    The default parameters give an oscillation period of ≈150 minutes
    (matching the average Caulobacter cycle time) with amplitudes similar
    to the paper's Figs. 2–3 (x1 up to ≈3, x2 up to ≈12). *)

open Numerics

type params = { a : float; b : float; c : float; d : float }

val default_params : params
val default_x0 : Vec.t

val simulate : ?rtol:float -> params -> x0:Vec.t -> times:Vec.t -> Ode.solution

val period : ?t_max:float -> params -> x0:Vec.t -> float
(** Oscillation period measured from successive upward crossings of
    x1 through its equilibrium value. *)

val phase_profiles : params -> x0:Vec.t -> n_phi:int -> Vec.t * Vec.t * Vec.t
(** [(phases, f1, f2)]: one full period resampled onto [n_phi] phase-bin
    centers on [0, 1) — the 'true' synchronized single-cell expression
    profiles used as deconvolution ground truth. *)
