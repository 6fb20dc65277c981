(** Dense vectors as [float array] with the numeric operations used
    throughout the library. All binary operations require equal lengths. *)

type t = float array

val zeros : int -> t
val ones : int -> t
val copy : t -> t
val of_list : float list -> t

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Element-wise product. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val dot : t -> t -> float
val sum : t -> float
val mean : t -> float
val norm_inf : t -> float
val min : t -> float
val max : t -> float
val argmin : t -> int
val argmax : t -> int

val concat : t list -> t
