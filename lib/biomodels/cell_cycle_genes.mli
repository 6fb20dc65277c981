(** A synthetic panel of cell-cycle-regulated genes, patterned on the
    classes of Caulobacter regulators the paper's line of work targets
    (early swarmer-stage genes, replication-initiation genes, mid-cycle
    division genes such as ftsZ, late predivisional genes). Each gene has a
    known single-cell phase profile, so a whole-regulon deconvolution can
    be scored exactly. *)

open Numerics

type gene = {
  name : string;
  expression_class : [ `Swarmer | `Early_stalked | `Mid_cycle | `Late_predivisional ];
  profile : Gene_profile.t;
  peak_phase : float;  (** phase of maximal expression *)
}

val panel : gene array
(** 12 genes, 3 per class, with distinct amplitudes and peak phases. *)

val class_index : gene -> int
(** 0 = Swarmer … 3 = Late_predivisional (class windows in peak-phase
    order). *)

val class_boundaries : Vec.t
(** Right edges of the peak-phase windows separating the four classes
    (length 3), usable with [Deconv.Batch.classify_by_peak]. *)

