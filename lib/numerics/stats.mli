(** Descriptive statistics and error metrics over [float array] samples. *)

val mean : Vec.t -> float

val std : Vec.t -> float
val cv : Vec.t -> float
(** Coefficient of variation std/|mean|. *)

val median : Vec.t -> float
val quantile : Vec.t -> float -> float
(** Linear-interpolation quantile, [q] in \[0, 1\]. *)

val correlation : Vec.t -> Vec.t -> float
(** Pearson correlation; 0 when either input is constant. *)

val rmse : Vec.t -> Vec.t -> float
val mae : Vec.t -> Vec.t -> float
val max_abs_error : Vec.t -> Vec.t -> float

val nrmse : Vec.t -> Vec.t -> float
(** RMSE normalized by the range of the first (reference) argument. *)

type histogram = { edges : Vec.t; counts : Vec.t }
(** [edges] has [n+1] entries for [n] bins; [counts] may be weighted. *)

val histogram : ?weights:Vec.t -> bins:int -> lo:float -> hi:float -> Vec.t -> histogram
(** Values outside [\[lo, hi)] are clamped into the end bins when within
    round-off, otherwise dropped. *)

val histogram_density : histogram -> Vec.t
(** Counts normalized so the histogram integrates to 1. *)

val runs_z : Vec.t -> float
(** Wald–Wolfowitz runs-test z-score on the sample's signs: \[|z| > 2.5\]
    flags serial structure (non-white residuals). Degenerate samples
    (single sign, n < 2) score 0. *)

val normality_z : Vec.t -> float
(** [max |z_skew| |z_kurt|], the skewness and excess-kurtosis z-scores
    against the normal-null standard errors √(6/n) and √(24/n) (the two
    Jarque–Bera components): a one-number normality moment check on
    standardized residuals, 0 for degenerate samples. *)
