(** λ-selection building blocks (the paper selects the smoothing
    parameter "via cross validation", citing Craven–Wahba): the fold
    partition and λ grid the selectors in [Deconv.Lambda] run on. *)

open Numerics

val kfold_indices : Rng.t -> n:int -> k:int -> int array array
(** Random partition of [0..n-1] into [k] folds whose sizes differ by at
    most one. Requires [2 <= k <= n]. *)

val log_lambda_grid : lo:float -> hi:float -> count:int -> Vec.t
(** Logarithmically spaced λ values from [10^lo] to [10^hi]. *)
