(** DNA content per cell — the flow-cytometry observable classically used
    to validate cell-cycle phase distributions (the paper's asynchrony
    model is "experimentally-validated"; DNA histograms are how such
    validation is done for Caulobacter synchrony experiments).

    Chromosome replication initiates at the SW→ST transition (the same
    event that gates ftsZ transcription) and completes before division, so
    DNA content is 1C for φ < φ_sst, ramps linearly to 2C during
    replication, which completes at φ = 0.92, and stays 2C until division. *)

open Numerics

(* lint: allow R15 — the per-cell rule under [fractions] and [histogram];
   test/test_dna_content.ml checks its replication ramp cell by cell *)
val of_cell : Cell.t -> float
(** DNA content in chromosome equivalents (1.0 … 2.0). *)

val fractions : Population.snapshot -> float * float * float
(** [(one_c, s_phase, two_c)] population fractions; sums to 1. *)

val histogram :
  ?bins:int -> ?measurement_cv:float -> Rng.t -> Population.snapshot -> Stats.histogram
(** FACS-style histogram of per-cell DNA content over [0.5, 2.5] with
    multiplicative measurement smear (default CV 0.06, 60 bins) — the
    familiar bimodal 1C/2C profile. *)

val fractions_over_time : Population.snapshot array -> Mat.t
(** Rows = snapshots, columns = (1C, S, 2C). *)
