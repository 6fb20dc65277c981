(** One-dimensional interpolation on sorted grids. *)

val bracket : Vec.t -> float -> int
(** [bracket x v] returns [i] with [x.(i) <= v < x.(i+1)] (clamped to the
    end intervals for out-of-range queries). [x] must be strictly
    increasing with at least two entries. *)

val linear_clamped : x:Vec.t -> y:Vec.t -> float -> float
(** Piecewise-linear interpolation that holds the end values outside the
    grid. *)

type pchip

val pchip_build : x:Vec.t -> y:Vec.t -> pchip
(** Monotone piecewise-cubic interpolant (Fritsch–Carlson): never
    overshoots the data. *)

val pchip_eval : pchip -> float -> float
