(** Richardson–Lucy iterative deconvolution on the raw phase grid — a
    classical positivity-preserving baseline with no spline representation
    and no explicit regularizer (early stopping regularizes implicitly).
    Used as the comparator algorithm for the paper's method. *)

open Numerics

type result = {
  profile : Vec.t;  (** estimate on the kernel's phase grid *)
  fitted : Vec.t;  (** forward model of the estimate *)
  iterations : int;
  misfit_history : Vec.t;  (** weighted data misfit after each iteration *)
}

val deconvolve :
  ?iterations:int ->
  ?initial:Vec.t ->
  ?min_value:float ->
  Cellpop.Kernel.t ->
  measurements:Vec.t ->
  unit ->
  result
(** Multiplicative updates
    f ← f · (Aᵀ(g ⊘ Af)) ⊘ (Aᵀ1), with the kernel's forward matrix A.
    Measurements are clamped at 0 (RL assumes non-negative data). Default
    100 iterations, flat initial estimate at the data mean, ratios guarded
    by [min_value] (1e-12). *)
