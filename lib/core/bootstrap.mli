(** Residual-bootstrap uncertainty bands for the deconvolved profile —
    turning the point estimate of paper eq. 5 into confidence statements
    (natural companion to the paper's parameter-estimation application).

    Caveat (standard for penalized estimators): the bands quantify
    *sampling variability* around the regularized estimate. The smoothing
    bias — the systematic difference between the λ-penalized estimate and
    the truth — is NOT captured, so coverage of the true profile is below
    nominal wherever the estimate is strongly smoothed (sharp peaks,
    boundary regions). *)

open Numerics

type bands = {
  level : float;  (** nominal two-sided confidence level, e.g. 0.9 *)
  lower : Vec.t;  (** per-phase lower percentile *)
  median : Vec.t;
  upper : Vec.t;
  replicates : Mat.t;  (** all bootstrap profiles (rows = replicates) *)
}

type outcome = {
  bands : bands option;  (** [None] only if every replicate failed *)
  failures : (int * Robust.Error.t) list;
      (** failed replicate indices (ascending) with their typed errors *)
  attempted : int;
  quality : (string * Quality.quantiles) list;
      (** per-replicate quality quantiles (rss, qp_iterations,
          active_positivity) over the successful re-solves; drifting
          quantiles flag replicate populations that are not exchangeable
          with the original fit *)
}

val residual_result :
  ?replicates:int ->
  ?level:float ->
  ?max_seconds:float ->
  ?max_iterations:int ->
  ?progress:Obs.Progress.t ->
  Problem.t ->
  Solver.estimate ->
  rng:Rng.t ->
  outcome
(** Standard residual bootstrap: resample standardized fit residuals with
    replacement, add them back to the fitted values, re-solve with the same
    λ, and take per-phase percentiles of the resulting profiles (defaults:
    200 replicates, level 0.9).

    The one implementation of the replicate fan-out. Each replicate
    solves independently via {!Parallel.parallel_map_result}; a failing
    replicate is recorded instead of aborting the job, and the bands are
    computed over the successful replicates (their rows, in replicate
    order). One RNG substream per replicate is derived up front, so every
    replicate's profile is bit-identical at every jobs setting.
    [max_seconds]/[max_iterations] give each replicate a fresh
    {!Robust.Budget}. Per-replicate quality quantiles are published as
    the [bootstrap.quality.<key>.p50]/[.p90] gauges and the failure count
    as the [bootstrap.replicates_failed] metric. [progress] receives one
    {!Obs.Progress.record} per completed replicate (aggregation only;
    profiles are unaffected).

    Raises {!Robust.Error.Error} with [Invalid_input] when [replicates]
    is below 10 or [level] is not in (0, 1). *)

val residual :
  ?replicates:int ->
  ?level:float ->
  Problem.t ->
  Solver.estimate ->
  rng:Rng.t ->
  bands
(** The raising wrapper over {!residual_result}, as {!Batch.solve_all}
    is over {!Batch.solve_all_result}: returns the bands when every
    replicate succeeded, and otherwise raises {!Robust.Error.Error} for
    the failing replicate of {e lowest index}. Argument checks and the
    published [bootstrap.quality.*] and [bootstrap.replicates_failed]
    metrics are {!residual_result}'s. *)

val width : bands -> Vec.t
(** Upper − lower band width per phase point. *)

val coverage : bands -> truth:Vec.t -> float
(** Fraction of phase-grid points where the truth lies inside the band
    (on well-specified synthetic data this should approach [level],
    pointwise). *)
