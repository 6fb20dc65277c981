(** Scalar root finding on a bracketing interval. *)

exception No_bracket
(** Raised when [f a] and [f b] have the same sign. *)

(* lint: allow R15 — the bracketing fallback next to [brent]; test/test_rootfind.ml
   checks it *)
val bisect : ?tol:float -> ?max_iter:int -> (float -> float) -> a:float -> b:float -> float

val brent : ?tol:float -> ?max_iter:int -> (float -> float) -> a:float -> b:float -> float
(** Brent's method: inverse quadratic interpolation with bisection
    safeguards. *)

(* lint: allow R15 — finds the bracket [brent] and [bisect] need; test/test_rootfind.ml
   checks it *)
val find_bracket :
  (float -> float) -> x0:float -> step:float -> max_expand:int -> (float * float) option
(** Expand outward from [x0] until a sign change is found. *)
