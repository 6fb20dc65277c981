(** Simulation and preprocessing of a full time-course expression
    experiment: one array (chip) per time point, several biological
    replicates, gene-specific probes. The processed output — per-gene
    measurement vectors with replicate-based standard deviations — is
    exactly what the deconvolution consumes. *)

open Numerics

type raw = {
  gene_names : string array;
  times : Vec.t;
  probes : Probe.t array;  (** one probe per gene *)
  replicates : Mat.t array;
      (** per replicate: (genes + control_spots) × times raw intensities;
          the final [control_spots] rows are blank (zero-concentration)
          control probes *)
  control_spots : int;
}

val simulate :
  ?replicates:int ->
  ?array_scale_cv:float ->
  ?control_spots:int ->
  Rng.t ->
  gene_names:string array ->
  times:Vec.t ->
  true_signals:Mat.t ->
  raw
(** [true_signals] is genes × times of population-level concentrations
    G_g(t_m). Each replicate chip gets its own multiplicative array scale
    (lognormal, CV default 0.15, mimicking labeling/scanner drift), each
    gene its own random probe (drawn once, shared across replicates, as on
    a real platform). [control_spots] blank probes (default 8) measure
    pure background per chip — real platforms include them, and they make
    background correction well-defined even for small gene panels.
    Default 3 replicates. *)

type processed = {
  estimates : Mat.t;  (** genes × times, background-corrected, normalized, replicate-averaged *)
  sigmas : Mat.t;  (** genes × times replicate standard errors (floored) *)
}

val process : raw -> processed
(** Per chip: subtract the median intensity of the blank control spots
    (falling back to a low percentile of all spots when no controls exist),
    clamp at zero, median-scale, drop the control rows; then average across
    replicates. The result is proportional to the true concentrations up to
    a single global factor and per-gene probe gains; deconvolution is
    per-gene and scale-equivariant, so shapes are preserved. *)

(* lint: allow R15 — the one-gene view of [processed] for callers that deconvolve
   genes one at a time; test/test_microarray.ml checks it *)
val gene_measurements : processed -> gene:int -> Vec.t * Vec.t
(** [(g, sigma)] rows for one gene. *)
