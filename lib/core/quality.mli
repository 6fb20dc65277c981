(** Solution-quality statistics and the diagnose report card.

    This module (with {!Numerics.Stats} and {!Diagnostics}) is where
    quality statistics — condition number κ of the penalized normal
    matrix and effective degrees of freedom (both from {!system}),
    residual whiteness/normality tests — are {e computed}; they leave the
    library only as [Obs.Diag] events on the trace stream (lint rule
    R14). The CLI's
    [diagnose] subcommand turns the stream back into per-solve report
    cards here, and [batch] aggregates per-gene statistics into
    quantiles. *)

open Numerics

(** {1 Statistics} *)

type system = {
  kappa : float;
      (** 1-norm condition number κ₁ = ‖M‖₁·‖M⁻¹‖₁ of the penalized normal
          matrix M = AᵀWA + λΩ; within [κ₂, n·κ₂] of the spectral one.
          [infinity] when M is not numerically SPD. *)
  edf : float;
      (** effective degrees of freedom tr(M⁻¹AᵀWA) of the unconstrained
          smoother at λ; NaN when M is not numerically SPD *)
}

val system : Problem.t -> lambda:float -> system
(** κ and edf of the penalized normal system at [lambda], from one
    Cholesky factor of M and n solves against it (M⁻¹ column by column).
    The one place these statistics are computed: {!Solver.solve_robust}'s
    pre-solve condition check, {!emit_solve} and {!Diagnostics.analyze}
    all call it. Never raises on a non-SPD M: the factor's failure is the
    [infinity]/NaN result. *)

val standardized_residuals : Problem.t -> fitted:Vec.t -> Vec.t
(** (g − ĝ)/σ per measurement, with the problem's measurements and
    sigmas: the one definition behind {!residual_stats},
    {!Diagnostics.analyze}, the residual bootstrap and the batch quality
    summary. *)

val emit_solve :
  ?solve:string ->
  problem:Problem.t ->
  fitted:Vec.t ->
  lambda:float ->
  entry_lambda:float ->
  rss:float ->
  degradation:int ->
  active_positivity:int ->
  qp_iterations:int ->
  unit ->
  unit
(** Build and emit the per-solve ["solve"]-stage diag record. The
    statistics not passed in — κ and edf at [lambda] ({!system}) and the
    residual tests — are computed here, inside the {!Obs.Diag.enabled}
    guard: with no sink installed the whole call costs one branch. *)

(** {1 Report cards} *)

type thresholds = {
  kappa_limit : float;  (** flag κ above this (solver's condition_limit) *)
  edf_fraction : float;
      (** flag edf above this fraction of n: the fit is near-interpolating *)
  whiteness_limit : float;  (** flag |runs z| above this *)
  normality_limit : float;  (** flag |normality z| above this *)
}

val default_thresholds : thresholds

type card = {
  solve : string;
  kappa : float;
  lambda : float;
  entry_lambda : float;
  edf : float;
  rss : float;
  runs_z : float;
  normality_z : float;
  n : float;
  active_positivity : float;
  qp_iterations : float;
  degradation : float;
  selector : string;  (** λ-selection method, from the ["lambda"] diag *)
  curve : (float * float) array;  (** λ-candidate profile, ditto *)
  flags : string list;  (** empty = healthy *)
}

val cards : ?thresholds:thresholds -> Obs.Export.event list -> card list
(** One card per solve id carrying a ["solve"]-stage diag record, in
    first-seen order; the ["lambda"] record of the same solve contributes
    the selector and candidate profile. Statistics absent from the stream
    read as NaN. *)

val output_report : ?thresholds:thresholds -> ?plot:bool -> out_channel -> card list -> unit
(** All cards plus a flagged-solve count footer. *)

val report_json : card list -> string
(** The machine-readable form: [{"solves":[{...}]}] with exact float
    round-trip. *)

(** {1 Batch aggregation} *)

type quantiles = { q50 : float; q90 : float; q_max : float; count : int }

val summarize : (string * float) list list -> (string * quantiles) list
(** Per-statistic quantiles over many solves' stat lists (one list per
    gene); non-finite values are dropped. Keys appear in first-seen
    order. *)

val publish : prefix:string -> (string * quantiles) list -> unit
(** Publish each statistic's p50 and p90 as the {!Obs.Metrics} gauges
    [<prefix>.quality.<key>.p50] and [<prefix>.quality.<key>.p90]. *)

val output_quantiles : out_channel -> (string * quantiles) list -> unit
