(** Synthetic ftsZ expression model (paper §4.3, Fig. 5).

    FtsZ is a tubulin homolog essential for bacterial cell division,
    transcribed only after DNA replication begins at the SW→ST transition
    (Kelly et al. 1998): its single-cell profile is *zero* during the
    swarmer stage, rises to a maximum near φ ≈ 0.4, then drops with no
    subsequent increase. The paper deconvolves McGrath et al. 2007
    microarray data; as that dataset is not redistributable, we build a
    synthetic single-cell profile with exactly the documented features and
    generate the population data through the forward model (substitution
    recorded in DESIGN.md). The experiment then checks that deconvolution
    recovers the delay and the post-peak drop that the population-level
    curve hides. *)

open Numerics

val profile : Gene_profile.t
(** The synthetic single-cell profile. Satisfies the division-conservation
    relation f(1) = 0.4·f(0) + 0.6·f(φ_sst) at φ_sst = onset. *)

val delay_visible : phases:Vec.t -> values:Vec.t -> threshold:float -> bool
(** True when the profile stays below [threshold × max] for all phases
    before the transcription onset (φ = 0.15) — the paper's "transcription delay"
    feature detector, applied to either the truth or an estimate. *)

val post_peak_monotone_drop : phases:Vec.t -> values:Vec.t -> tolerance:float -> bool
(** True when, after the profile's maximum, values never rise again by more
    than [tolerance × max] — the paper's "no subsequent increase"
    prediction. *)
