(** Structured pre-solve validation: every check that used to surface as a
    deep-in-the-stack [assert]/[failwith] (or as silent garbage) is checked
    here up front and reported as a typed {!Error.t}. *)

open Numerics

val all_finite : Vec.t -> bool

val finite : stage:string -> Vec.t -> (unit, Error.t) result
(** [Non_finite {stage}] if any entry is NaN or infinite. *)

val usable_sigma : float -> bool
(** σ is finite and strictly positive, and so is its weight 1/σ² (which
    overflows for σ below ~1e-154 and underflows to 0 above ~1e154). *)

val sigmas : Vec.t -> (unit, Error.t) result
(** Every σ must satisfy {!usable_sigma}. *)

(* lint: allow R15 — the time-grid rule under kernel validation; test/test_robust.ml
   checks it on ties, disorder, negatives and NaN *)
val times : field:string -> Vec.t -> (unit, Error.t) result
(** Times must be finite, non-negative and non-decreasing (ties are
    allowed: replicate measurements at the same time are legitimate). *)

val kernel : ?mass_tol:float -> Cellpop.Kernel.t -> (unit, Error.t) result
(** Checks dimensions, finiteness of phases/times/Q, sortedness of times,
    and that every row of Q integrates to 1 within [mass_tol] (default
    1e-3). A row with (almost) no mass is {!Error.Kernel_degenerate}. *)
