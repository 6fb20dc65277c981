(** λ-selection building blocks (the paper selects the smoothing
    parameter "via cross validation", citing Craven–Wahba): the fold
    partition and λ grid the selectors in [Deconv.Lambda] run on, and a
    generic per-candidate k-fold score. *)

open Numerics

val kfold_indices : Rng.t -> n:int -> k:int -> int array array
(** Random partition of [0..n-1] into [k] folds whose sizes differ by at
    most one. Requires [2 <= k <= n]. *)

val log_lambda_grid : lo:float -> hi:float -> count:int -> Vec.t
(** Logarithmically spaced λ values from [10^lo] to [10^hi]. *)

val kfold_score :
  rng:Rng.t ->
  k:int ->
  n:int ->
  fit_on:(train:int array -> float -> 'model) ->
  predict_error:('model -> test:int array -> float) ->
  float ->
  float
(** Mean held-out error of λ across folds: [fit_on ~train lambda] trains a
    model on the index subset, [predict_error model ~test] returns its mean
    squared error on the held-out subset. *)
