(** Individual cell state and its stochastic parameters θ_k = (φ_sst_k, T_k)
    (paper §2.1). *)

open Numerics

type t = {
  phase : float;  (** current cell-cycle phase φ_k ∈ [0, 1) *)
  phi_sst : float;  (** this cell's SW→ST transition phase *)
  cycle_minutes : float;  (** this cell's total cycle time T_k *)
}

val draw_phi_sst : Params.t -> Rng.t -> float
(** Truncated-normal draw of φ_sst, confined to (0.02, 0.98) so every cell
    has a valid dimorphic cycle. *)

val draw_cycle_minutes : Params.t -> Rng.t -> float
(** Truncated-normal draw of T_k, bounded below at 20 % of the mean. *)

val founder : Params.t -> Rng.t -> t
(** A founder cell per the population's initial condition. *)

val swarmer_daughter : Params.t -> Rng.t -> t
(** Fresh SW daughter at φ = 0 with freshly drawn θ. *)

val stalked_daughter : Params.t -> Rng.t -> t
(** Fresh ST daughter re-entering its cycle at its own φ_sst (it skips the
    swarmer stage). *)

val time_to_division : t -> float
(** Minutes until this cell reaches φ = 1. *)

val advance : t -> float -> t
(** [advance cell dt] moves the phase forward by [dt] minutes. The caller
    must ensure the cell does not cross φ = 1 (use {!time_to_division}). *)

val volume : Params.t -> t -> float
