(** Recovery metrics comparing an estimated single-cell profile against the
    known ground truth in the validation experiments. *)

open Numerics

type comparison = {
  rmse : float;
  nrmse : float;  (** RMSE / range of the truth *)
  mae : float;
  max_abs : float;
  correlation : float;  (** Pearson correlation *)
}

val compare : truth:Vec.t -> estimate:Vec.t -> comparison

val to_string : comparison -> string

