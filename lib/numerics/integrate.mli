(** Numerical quadrature over \[a, b\] and over sampled grids. *)

val trapezoid_weights : Vec.t -> Vec.t
(** Quadrature weights [w] such that [dot w y] = trapezoid integral of the
    samples [y] on grid [x]. *)

val simpson : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite Simpson rule; [n] is rounded up to an even panel count. *)

val gauss_legendre_nodes : int -> Vec.t * Vec.t
(** [gauss_legendre_nodes n] returns nodes and weights on \[-1, 1\]. *)
