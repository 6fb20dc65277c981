(** The constrained regularized estimator of paper §2.3: minimize the cost
    C(λ) of eq. 5 subject to positivity, conservation and rate-continuity,
    as a convex QP over the spline coefficients — plus {!solve_robust}, a
    fault-tolerant front end that repairs, validates and preconditions the
    inputs and returns a typed error instead of raising from deep inside
    the numerics. *)

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
  Problem.t ->
  estimate
(** Default λ = 1e-4 (use {!Lambda} for data-driven selection). [budget]
    (default unlimited) is ticked once per QP pass (an add or a drop of
    one positivity row, and the first scan); when it fires the solve
    raises {!Robust.Error.Error} [(Budget_exhausted _)]. All failures
    cross this boundary as {!Robust.Error.Error}: a singular system
    surfaces as [Ill_conditioned], a QP that reaches its iteration cap
    unconverged as [Qp_stalled] carrying the iterations it spent — never
    a bare internal exception or a half-converged estimate.

    The QP runs on the free coefficients β of α = Zβ, with Z the
    problem's [null_space]: it minimizes the reduced cost (ZᵀHZ, Zᵀg)
    subject to the positivity rows ΨZβ ≥ 0 only, so the conservation and
    rate-continuity rows hold by construction. The QP starts from the
    reduced minimizer without positivity and adds the violated rows one
    at a time ({!Optimize.Qp}). *)

(* lint: allow R15 — the direct solve under [naive], E14's no-regularization
   baseline; the solver and spectral tests check it against the spectral
   path *)
val solve_unconstrained : ?lambda:float -> Problem.t -> estimate
(** The same objective ignoring all constraints — the pure smoothing-spline
    baseline of the ablations. A direct Cholesky solve of the normal
    equations; λ selection reads the same minimizer off the spectral
    factorization instead ({!Problem.factorize}). *)

val naive : Problem.t -> estimate
(** The no-regularization baseline: λ = 0 with a vanishing ridge for
    numerical solvability and no constraints. Demonstrates the
    ill-posedness of the inversion (paper §2.3: "this inversion process is
    ill-posed"). *)

val finite_estimate : estimate -> bool
(** All of [alpha], [profile], [fitted] and [cost] are finite — the
    sanity gate {!solve_robust} (and the fault-isolated batch) applies
    before accepting an estimate. *)

(** {1 Fault tolerance} *)

type policy = {
  condition_limit : float;  (** κ above which the preconditioning ridge is applied *)
  qp_max_iter : int;  (** the QP's pass cap *)
  repair_inputs : bool;  (** mask NaN measurements, fix bad sigmas *)
}
(** {!solve_robust}'s switches. The preconditioning ridge is fixed at
    1e-8·‖AᵀWA + λΩ‖_max. *)

(* lint: allow R15 — [solve_robust]'s default switches; the tests override
   its fields to disable repair, move the condition limit or cap the QP *)
val default_policy : policy
(** Condition limit 1e12, QP pass cap 100, input repair enabled. *)

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
(** Fault-tolerant solve, one straight path:

    {ol
     {- repair inputs (if [policy.repair_inputs]) and {!Problem.validate};
        unreparable input ⇒ [Error];}
     {- estimate the condition number κ₁ of AᵀWA + λΩ
        ({!Quality.system}); above [condition_limit] (or when the matrix
        is not SPD), add the preconditioning ridge;}
     {- one constrained QP at [lambda], solved as {!solve} solves it ⇒
        [Ok] with the estimate, or that attempt's typed error
        ([Qp_stalled], [Ill_conditioned], [Non_finite],
        [Budget_exhausted]).}}

    Every [Ok] estimate therefore satisfies positivity, conservation and
    rate-continuity (paper eq. 5 under §3.2's constraints): there is no
    unconstrained or Richardson–Lucy fallback. On a clean problem the
    attempt is numerically identical to {!solve} and the report shows
    [degradation = 0]; input repairs or the preconditioning ridge make it
    1. The attempt (stage, λ, ridge, wall-clock, iterations) is recorded
    in the report.

    [budget] (default unlimited) is ticked once per QP pass; when it
    fires the result is [Error (Budget_exhausted _)]. *)
