(** Dense row-major matrices of floats. Sized operations assert dimension
    compatibility; indices are 0-based. *)

type t = { rows : int; cols : int; data : float array }

val init : int -> int -> (int -> int -> float) -> t
val zeros : int -> int -> t
val identity : int -> t
val of_rows : Vec.t array -> t
val copy : t -> t

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int

val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val matmul : t -> t -> t
val mv : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val tmv : t -> Vec.t -> Vec.t
(** [tmv a x] is [transpose a * x] without forming the transpose. *)

val gram : t -> t
(** [gram a] is [aᵀa]. *)

val map : (float -> float) -> t -> t
val frobenius : t -> float
val max_abs : t -> float
