(** Data-driven selection of the smoothing parameter λ of paper eq. 5
    ("λ ... may be selected via cross validation", citing Craven–Wahba).

    Every selector runs on one spectral path: one Demmler–Reinsch
    factorization of the penalized system ({!Problem.factorize},
    {!Optimize.Spectral}) turns every λ candidate's misfit, roughness and
    edf into O(n) diagonal operations, so a k-candidate sweep costs about
    one factorization instead of k Cholesky solves; the scores agree with
    a direct per-candidate solve to rounding (the equivalence tests pin
    ≤1e-8). When the factorization fails ({!Numerics.Linalg.Singular}
    even with the anchored Gram side) no candidate can be scored, and the
    selector raises {!Robust.Error.Error} with
    [Non_finite {stage = "lambda selection (...)"}] — the same error as
    when every candidate scores non-finite. GCV and the L-curve read
    [spectral] instead when given ({!Problem.factorize} of the same system,
    as {!Batch} shares it); results are bit-identical either way. *)

open Numerics

type curve_point = { lambda : float; score : float }

val gcv :
  ?spectral:Optimize.Spectral.t -> Problem.t -> lambdas:Vec.t -> float * curve_point array
(** Robust generalized cross-validation on the unconstrained smoothing
    problem: score(λ) = N·RSS_w / (N − γ·edf)² with γ = 1.4 (Cummins,
    Filloon & Nychka). Plain GCV (γ = 1) occasionally collapses to a
    near-interpolating λ when N is as small as a typical expression time
    course; the γ-correction removes that failure mode. Returns the winning
    λ and the full curve. *)

(* lint: allow R15 — the scored curve that [select] discards: test/test_solver.ml and
   test/test_spectral.ml check it point by point against Testutil.kfold_score *)
val kfold :
  Problem.t -> rng:Rng.t -> k:int -> lambdas:Vec.t -> float * curve_point array
(** k-fold cross-validation: each fold refits on the remaining measurements
    (unconstrained, for speed and because constraints are
    data-independent) and scores weighted squared error on the held-out
    measurements. Each fold's training subsystem is factored exactly once
    (anchored — training Gram matrices are smaller than the basis and
    hence rank-deficient) and reused by every candidate; a fold that
    cannot be factored ends the selection with the typed error. The fold
    assignment comes from one [Rng.split] of [rng], so every candidate
    sees the same folds. *)

(* lint: allow R15 — the curvature curve that [select] discards: test/test_deconv_ext.ml
   checks its corner *)
val lcurve :
  ?spectral:Optimize.Spectral.t -> Problem.t -> lambdas:Vec.t -> float * curve_point array
(** L-curve selection: pick the λ of maximum curvature of the parametric
    curve (log misfit, log roughness) over the grid (Hansen's criterion).
    The returned curve's [score] field carries the (negated) discrete
    curvature so that lower-is-better matches the other selectors.

    Provided for completeness and comparison: on this problem the L-curve
    is typically gently curved with no sharp corner (the known
    smooth-solution failure mode, Hanke 1996) and tends to undersmooth —
    the `ext_lambda_selection` bench quantifies this. Robust GCV is the
    recommended default. *)

val select :
  Problem.t ->
  method_:[< `Gcv | `Kfold of int | `Lcurve | `Fixed of float ] ->
  ?rng:Rng.t ->
  ?lambdas:Vec.t ->
  ?spectral:Optimize.Spectral.t ->
  unit ->
  float
(** Unified entry point; the default grid is 25 points, logarithmic in
    [1e-7, 1e2].

    All selectors are guarded against non-finite candidates: NaN/Inf λ grid
    points and candidates whose cost comes out NaN/Inf (or whose fit raises
    {!Linalg.Singular}) are skipped rather than allowed to win the argmin.
    When {e every} candidate is non-finite the selection raises
    {!Robust.Error.Error} with [Non_finite {stage = "lambda selection ..."}]
    — use {!select_result} for the non-raising form. Arguments no
    candidate can fix raise [Invalid_input]: [{field = "k"}] unless
    2 <= k <= the number of measurements, and [{field = "lambdas"}] for an
    empty grid or an L-curve grid of fewer than 3 candidates.

    When a trace sink is installed, the full candidate profile the
    selector scored (empty for [`Fixed]) is emitted as a ["lambda"]-stage
    {!Obs.Diag} event. *)

val select_result :
  Problem.t ->
  method_:[< `Gcv | `Kfold of int | `Lcurve | `Fixed of float ] ->
  ?rng:Rng.t ->
  ?lambdas:Vec.t ->
  ?spectral:Optimize.Spectral.t ->
  unit ->
  (float, Robust.Error.t) result
(** As {!select}, returning the typed error instead of raising. *)
