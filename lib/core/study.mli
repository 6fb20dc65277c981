(** Monte-Carlo recovery studies: how well does deconvolution work *on
    average* over a family of plausible single-cell profiles, rather than
    on one hand-picked example? *)

open Numerics

(* lint: allow R15 — the study's profile generator; test/test_schedule_study.ml checks
   its profiles are nonnegative and independent *)
val random_profile : Rng.t -> float -> float
(** A random non-negative phase profile: a baseline plus 1–3 Gaussian
    pulses with random centers, widths and heights. Calling it is pure;
    randomness is consumed when the profile is built — build one per run
    via [fun () -> random_profile rng]. *)

type summary = {
  runs : int;
  median_rmse : float;
  iqr_rmse : float * float;  (** 25th / 75th percentiles *)
  median_correlation : float;
  worst_correlation : float;
  fraction_above_09 : float;  (** fraction of runs with correlation > 0.9 *)
}

val recovery_distribution :
  ?runs:int -> Pipeline.config -> rng:Rng.t -> Metrics.comparison array
(** Run the pipeline on [runs] (default 20) random profiles, varying the
    pipeline seed per run. *)

val summarize : Metrics.comparison array -> summary

