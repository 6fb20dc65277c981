(** Convex quadratic programming with inequality constraints:

    minimize ½ xᵀ H x + gᵀ x
    subject to  A x ≥ b

    A primal-dual interior-point method (infeasible-start path following
    with a Mehrotra-style centering parameter), which is robust to the
    heavy degeneracy of "function ≥ 0 on a fine grid" constraint sets;
    without inequalities the minimizer is one direct solve. [H] must be
    symmetric positive definite (the deconvolution problem guarantees this
    through the λ-regularizer). Equality constraints are not supported:
    callers with homogeneous equalities C x = 0 solve on a null-space
    basis Z of C ({!Numerics.Linalg.null_space}), x = Z β, so they hold by
    construction. *)

open Numerics

type problem = {
  h : Mat.t;  (** n × n, symmetric positive definite *)
  g : Vec.t;  (** linear term, length n *)
  ineq : (Mat.t * Vec.t) option;  (** inequality rows A and bounds b of A x ≥ b *)
}

type status =
  | Converged  (** all KKT tolerances met *)
  | Stalled  (** iteration cap reached first — the iterate is best-effort *)

type solution = {
  x : Vec.t;
  active : int list;  (** inequality constraints essentially active at the solution *)
  iterations : int;
  kkt_residual : float;  (** infinity norm of the stationarity residual *)
  status : status;
}

type warm_start = {
  x0 : Vec.t;  (** initial primal point, length n *)
  active0 : int list;  (** inequality rows believed active at the solution *)
}
(** Warm-start hint for the interior-point method — typically the
    minimizer without the inequalities ({!unconstrained}), or the previous
    solution and active set when sweeping neighboring λ values (the robust
    cascade's escalation retries). Affects only the starting iterate:
    slacks are read off [x0] (floored away from the boundary) and duals
    are placed on the central path at a small μ₀, so a good hint saves
    the early centering iterations while a poor one (violating A x ≥ b by
    more than a tenth of max(1, ‖b‖∞, ‖A x0‖∞)) is rejected for the cold
    start. Ignored when there are no inequalities. *)

val unconstrained : Mat.t -> Vec.t -> Vec.t
(** Minimizer of the pure quadratic: solves [H x = −g]. *)

val solve :
  ?warm_start:warm_start ->
  ?on_iteration:(int -> unit) ->
  ?tol:float ->
  ?max_iter:int ->
  problem ->
  solution
(** Full solve. [tol] bounds the complementarity measure and the
    stationarity residual, both relative to max(1, ‖g‖∞, ‖H‖max, ‖b‖∞),
    and the feasibility residual of A x ≥ b, relative to
    max(1, ‖b‖∞, ‖A x‖∞), at termination (default 1e-9); [max_iter] defaults
    to 100 interior-point steps. Reaching the iteration cap without
    convergence is not an exception: the last iterate comes back with
    [status = Stalled] (and [iterations = max_iter]), so callers decide
    what a stall means — [Solver.solve] turns it into a typed
    [Qp_stalled] error, the robust cascade retries from the stalled
    iterate.

    [on_iteration] is invoked with the 1-based iteration count at the top
    of every interior-point pass (and once, with [1], for the direct solve
    without inequalities) before any work for that pass is done. It may
    raise to abort the solve — the hook for external deadline/budget
    enforcement without this module depending on any policy layer. *)
