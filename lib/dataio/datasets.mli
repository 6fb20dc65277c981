(** Embedded experimental reference data.

    The Judd et al. (2003, PNAS) cell-type fractions are a *digitized
    approximation* of the experimental panel reproduced in the paper's
    Fig. 4 (bottom); the original numeric table is not redistributable.
    The digitization preserves the qualitative shapes the validation
    compares: SW low then rising after the first divisions, STE decaying,
    STEPD rising then leveling, STLPD rising late. *)

open Numerics

val judd_times : Vec.t
(** Minutes: 75, 90, 105, 120, 135, 150. *)

val judd_sw : Vec.t
val judd_ste : Vec.t
val judd_stepd : Vec.t
val judd_stlpd : Vec.t

val ftsz_measurement_times : Vec.t
(** Sampling grid of the McGrath et al. microarray time course (minutes
    0–160 every ~13 min, 13 samples) used for the Fig. 5 experiment. *)

val lv_measurement_times : Vec.t
(** Sampling grid of the Fig. 2/3 experiment: 0–180 minutes every 15. *)

val load_measurements :
  path:string -> (Vec.t * Vec.t * Vec.t option, Csv.error) result
(** Load a measurements CSV with columns [minutes,g[,sigma]] as
    [(times, g, sigmas)], sorted by time (unsorted files are accepted and
    reordered). Malformed files — wrong column count, non-numeric or
    ragged rows — are reported as a structured {!Csv.error}. *)
