(** The constrained regularized estimator of paper §2.3: minimize the cost
    C(λ) of eq. 5 subject to positivity, conservation and rate-continuity,
    as a convex QP over the spline coefficients — plus {!solve_robust}, a
    fault-tolerant front end that validates, repairs, retries and degrades
    gracefully instead of raising from deep inside the numerics. *)

open Numerics

type estimate = {
  alpha : Vec.t;  (** spline coefficients of f̂ *)
  profile : Vec.t;  (** f̂ sampled on the kernel's phase grid *)
  fitted : Vec.t;  (** Ĝ(t_m) = A Ψ α *)
  lambda : float;
  cost : float;  (** the achieved value of eq. 5 *)
  data_misfit : float;  (** Σ (G−Ĝ)²/σ² *)
  roughness : float;  (** ∫ f̂''² *)
  active_positivity : int;  (** number of active positivity constraints *)
  qp_iterations : int;
}

val solve :
  ?budget:Robust.Budget.t ->
  ?lambda:float ->
  ?ridge:float ->
  Problem.t ->
  estimate
(** Default λ = 1e-4 (use {!Lambda} for data-driven selection). [ridge]
    (default 0) adds ridge·I to the normal matrix — the knob the robust
    cascade escalates to fight ill-conditioning. [budget] (default
    unlimited) is ticked once per QP pass (an add or a drop of one
    positivity row, and the first scan); when it fires
    the solve raises {!Robust.Error.Error} [(Budget_exhausted _)]. All
    failures cross this boundary as {!Robust.Error.Error}: a singular
    system surfaces as [Ill_conditioned], a QP that reaches its iteration
    cap unconverged as [Qp_stalled] carrying the iterations it spent —
    never a bare internal exception or a half-converged estimate.

    The QP runs on the free coefficients β of α = Zβ, with Z the
    problem's [null_space]: it minimizes the reduced cost (ZᵀHZ, Zᵀg)
    subject to the positivity rows ΨZβ ≥ 0 only, so the conservation and
    rate-continuity rows hold by construction. The QP starts from the
    reduced minimizer without positivity and adds the violated rows one
    at a time ({!Optimize.Qp}). *)

(* lint: allow R15 — the pure smoothing-spline baseline under the cascade's unconstrained
   stage; the solver and spectral tests compare against it *)
val solve_unconstrained : ?lambda:float -> ?ridge:float -> Problem.t -> estimate
(** The same objective ignoring all constraints — the pure smoothing-spline
    baseline (the robust cascade's unconstrained stage, and ablations).
    A direct Cholesky solve of the normal equations, the one unconstrained
    path that accepts a [ridge] (default 0); λ selection reads the same
    minimizer off the spectral factorization instead
    ({!Problem.factorize}). *)

val naive : Problem.t -> estimate
(** The no-regularization baseline: λ = 0 with a vanishing ridge for
    numerical solvability and no constraints. Demonstrates the
    ill-posedness of the inversion (paper §2.3: "this inversion process is
    ill-posed"). *)

val finite_estimate : estimate -> bool
(** All of [alpha], [profile], [fitted] and [cost] are finite — the
    sanity gate the cascade (and the fault-isolated batch) applies before
    accepting an estimate. *)

(** {1 Fault tolerance} *)

type policy = {
  max_retries : int;  (** extra constrained attempts after the first *)
  condition_limit : float;  (** κ above which a preemptive ridge is applied *)
  qp_max_iter : int;
  enable_unconstrained : bool;  (** allow degradation level 2 *)
  enable_richardson_lucy : bool;  (** allow degradation level 3 *)
  repair_inputs : bool;  (** mask NaN measurements, fix bad sigmas *)
}
(** The cascade's switches. Its retry schedule is fixed: each retry
    multiplies λ by 10; the first retry's ridge is 1e-8·‖H‖_max and each
    further one multiplies it by 100; the Richardson–Lucy stage runs 200
    iterations. *)

(* lint: allow R15 — [solve_robust]'s default switches; the fallback tests override
   its fields to force each rung of the cascade *)
val default_policy : policy
(** 2 retries, λ×10 per retry, relative ridge floor 1e-8 growing ×100,
    condition limit 1e12, both fallbacks and input repair enabled. *)

val repair_problem : Problem.t -> Problem.t * Robust.Report.repair list
(** Best-effort input repair: non-finite measurements are masked (value 0
    with a huge-but-finite σ, so their weight vanishes) and sigmas that
    fail {!Robust.Validate.usable_sigma} (non-finite, non-positive, or
    with a non-finite or zero weight 1/σ²) are replaced by the median of
    the valid ones.
    Returns the problem unchanged (physically equal) when nothing needed
    fixing. *)

val solve_robust :
  ?policy:policy ->
  ?budget:Robust.Budget.t ->
  ?lambda:float ->
  Problem.t ->
  (estimate * Robust.Report.t, Robust.Error.t) result
(** Fault-tolerant solve. Every constrained attempt solves as {!solve}
    does, at its own λ and ridge. The cascade:

    {ol
     {- repair inputs (if [policy.repair_inputs]) and {!Problem.validate};
        unreparable input ⇒ [Error];}
     {- estimate the condition number of AᵀWA + λΩ; above
        [condition_limit], precondition with a ridge;}
     {- constrained QP, retrying up to [max_retries] times with escalating
        λ and ridge on stall / singular factorization / non-finite result;}
     {- unconstrained smoothing spline at the boosted regularization;}
     {- Richardson–Lucy multiplicative deconvolution (positivity-preserving,
        factorization-free).}}

    On a clean problem the first attempt is numerically identical to
    {!solve} and the report shows [degradation = 0]. Every attempt (stage,
    λ, ridge, wall-clock, outcome) is recorded in the report.

    [budget] (default unlimited) is one {!Robust.Budget} shared across the
    whole cascade: every QP pass and Richardson–Lucy update
    ticks it, and when it fires the remaining stages are skipped and the
    result is [Error (Budget_exhausted _)] — a runaway gene is cut off
    rather than handed to a cheaper stage with the clock already blown. *)
