(** A probe/hybridization model for one gene on an expression array: the
    measured intensity is an affine, saturating, noisy transform of the
    population-level concentration (paper §2.2: "signal intensity … is
    proportional to the population-level concentration" — proportional only
    after the preprocessing implemented in {!Normalize} and
    {!Timecourse}). *)

open Numerics

type t = {
  gain : float;  (** probe-specific sensitivity (multiplicative) *)
  background : float;  (** additive background fluorescence *)
  noise_cv : float;  (** multiplicative lognormal measurement noise CV *)
  saturation : float;  (** intensity ceiling of the scanner *)
}

val draw : ?gain_cv:float -> ?background_mean:float -> Rng.t -> t
(** Random probe: lognormal gain around 1 (CV default 0.3), exponential
    background, noise CV 0.05, saturation 65535. *)

val measure : t -> Rng.t -> concentration:float -> float
(** One raw intensity readout. *)
