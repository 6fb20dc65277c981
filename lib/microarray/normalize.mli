(** Array-level normalization: one column of the expression matrix is one
    chip (a time point); normalization removes chip-to-chip gain and
    background differences before deconvolution. *)

open Numerics

(* lint: allow R15 — a normalization step offered next to [median_scale] for callers
   of the microarray model; test/test_microarray.ml checks it *)
val background_correct : ?percentile:float -> Mat.t -> Mat.t
(** Subtract a per-column background estimate (the given percentile of the
    column, default 0.05) and clamp at zero. *)

val median_scale : Mat.t -> Mat.t
(** Rescale each column so its median matches the global median of all
    column medians (global intensity normalization). Columns with zero
    median are left unscaled. *)

(* lint: allow R15 — a normalization step offered next to [median_scale] for callers
   of the microarray model; test/test_microarray.ml checks it *)
val quantile : Mat.t -> Mat.t
(** Full quantile normalization: every column is forced onto the common
    (mean) quantile profile — rank statistics per column are preserved. *)

(* lint: allow R15 — a normalization step offered next to [median_scale] for callers
   of the microarray model; test/test_microarray.ml checks it *)
val log2 : ?offset:float -> Mat.t -> Mat.t
(** log₂(x + offset), offset default 1.0. *)
