(** Morphological cell-type classification (paper §4.2, Fig. 4).

    Cells are grouped by phase into swarmer (SW), early stalked (STE),
    early predivisional (STEPD) and late predivisional (STLPD). The SW→STE
    boundary is each cell's own φ_sst; the later boundaries are
    population-level phases that are hard to pin down experimentally, so
    the paper reports ranges: STE→STEPD ∈ [0.6, 0.7] and
    STEPD→STLPD ∈ [0.85, 0.9]. *)

open Numerics

type category = SW | STE | STEPD | STLPD

type boundaries = { ste_to_stepd : float; stepd_to_stlpd : float }

val low_boundaries : boundaries
(** 0.6 / 0.85 *)

val mid_boundaries : boundaries
(** 0.65 / 0.875 — the figure's solid line *)

val high_boundaries : boundaries
(** 0.7 / 0.9 *)

(* lint: allow R15 — the per-cell rule under [fractions_over_time]; the category
   boundary tests in test/test_celltype.ml pin it cell by cell *)
val classify : boundaries -> Cell.t -> category

val fractions_over_time : boundaries -> Population.snapshot array -> Mat.t
(** Row m = fractions at snapshot m; columns ordered SW, STE, STEPD,
    STLPD, each in \[0, 1\] and summing to 1. *)
