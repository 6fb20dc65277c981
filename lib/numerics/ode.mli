(** Initial-value problem integrators for systems [y' = f(t, y)]. *)

type system = float -> Vec.t -> Vec.t
(** Right-hand side: [f t y] returns dy/dt. *)

type solution = { times : Vec.t; states : Mat.t }
(** Row [i] of [states] is the state at [times.(i)]. *)

val rk45 :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?h_max:float ->
  system ->
  y0:Vec.t ->
  times:Vec.t ->
  solution
(** Adaptive Dormand–Prince 5(4) integration, sampled at the (increasing)
    requested [times] by cubic Hermite interpolation between accepted steps.
    [times] must contain at least the initial time as first element. *)
