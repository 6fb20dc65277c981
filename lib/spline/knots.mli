(** Knot placement helpers. *)

open Numerics

val uniform : lo:float -> hi:float -> int -> Vec.t
(** [uniform ~lo ~hi n] places [n >= 2] knots evenly, endpoints included. *)

