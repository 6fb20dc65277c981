(** Goodwin negative-feedback oscillator — a second single-cell test model
    (extension beyond the paper's LV example):

    ẋ = a / (1 + zⁿ) − b x,   ẏ = c x − d y,   ż = e y − f z

    Oscillates for sufficiently steep feedback (n ≳ 8). *)

open Numerics

type params = { a : float; b : float; c : float; d : float; e : float; f : float; n : float }

val default_params : params
(** Parameters giving a stable limit cycle with a period on the order of a
    Caulobacter cell cycle when time is measured in minutes. *)

val default_x0 : Vec.t

val period : ?t_max:float -> ?transient:float -> params -> x0:Vec.t -> float
(** Period measured after discarding an initial transient (the Goodwin
    cycle is attracting, unlike the neutrally stable LV orbits). *)

val phase_profile : ?species:int -> params -> x0:Vec.t -> n_phi:int -> Vec.t * Vec.t
(** One post-transient period of the chosen species (default x, index 0)
    resampled onto phase-bin centers. *)
