(** Exact stochastic simulation (Gillespie's direct method) and approximate
    tau-leaping for mass-action reaction networks. *)

open Numerics

type trajectory = {
  times : Vec.t;  (** event (or leap) times, starting at t0 *)
  states : int array array;  (** copy numbers after each recorded time *)
}

val direct :
  ?max_events:int ->
  Reaction_network.t ->
  rng:Rng.t ->
  x0:int array ->
  t0:float ->
  t1:float ->
  trajectory
(** Exact SSA from [t0] to [t1] (or until [max_events], default 1e6, or
    propensity exhaustion). The final recorded time is always [t1] with the
    last state, so sampling is safe up to [t1]. *)

val value_at : trajectory -> species:int -> float -> float
(** Piecewise-constant lookup of a species' copy number at a time. *)

