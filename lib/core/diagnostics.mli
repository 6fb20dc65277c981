(** Model-adequacy diagnostics for a fitted deconvolution: does the
    estimate actually explain the data at the stated noise level? (The
    question a practitioner must answer before trusting f̂ — mis-specified
    kernels and underestimated σ both show up here.) *)

open Numerics

type report = {
  standardized_residuals : Vec.t;  (** (g − ĝ)/σ per measurement *)
  chi2 : float;  (** Σ standardized residual² *)
  dof : float;
      (** measurements − effective dof of the smoother; NaN when that
          edf is undefined (see {!analyze}) *)
  p_value : float;
      (** lack-of-fit p-value: small (< 0.05) means the model does NOT
          explain the data at the stated noise level; NaN when [dof] is *)
  lag1_autocorrelation : float;
      (** of the standardized residuals; large |value| indicates structure
          the fit missed (e.g. a mis-specified kernel) *)
  runs_z : float;
      (** Wald–Wolfowitz runs-test z-score on residual signs; |z| > 2
          flags non-random residual patterns *)
}

val analyze : Problem.t -> Solver.estimate -> report
(** The smoother's effective dof is {!Quality.system}'s edf of the
    unconstrained system at the estimate's λ (constraints change it only
    slightly). When the penalized normal matrix there is not numerically
    SPD that edf is NaN, and so are [dof] and [p_value]: the lack-of-fit
    test is unavailable, which callers should report as such rather than
    as a rejection. Never raises on a non-SPD system. *)

val adequate : ?alpha:float -> report -> bool
(** True when the lack-of-fit p-value exceeds [alpha] (default 0.05) and
    the runs test does not reject (|z| <= 2.5); false when the test is
    unavailable ([p_value] NaN). *)

val to_string : report -> string
