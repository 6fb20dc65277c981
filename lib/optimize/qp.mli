(** Convex quadratic programming with inequality constraints:

    minimize ½ xᵀ H x + gᵀ x
    subject to  A x ≥ b

    The Goldfarb–Idnani dual active-set method (Math. Programming 27,
    1983). It factors H = LLᵀ once, starts at the unconstrained minimizer
    −H⁻¹g, and adds the most violated row (the lowest slack aᵢᵀx − bᵢ,
    ties to the lowest index) one at a time, dropping an active row when
    its multiplier would turn negative. J = L⁻ᵀ and the triangular factor
    of the active rows are updated by Givens rotations, so the method ends
    in finitely many steps with exact multipliers and an exact active set.
    A row whose component outside the active rows' span is negligible
    (‖d₂‖² ≤ 1e-14‖d‖² in J coordinates) is dependent: it forces a drop
    and is never divided by. Without inequalities the minimizer is the one
    Cholesky solve. [H] must be symmetric positive definite (the
    deconvolution problem guarantees this through the λ-regularizer);
    otherwise the factorization raises {!Numerics.Linalg.Singular}.
    Equality constraints are not supported: callers with homogeneous
    equalities C x = 0 solve on a null-space basis Z of C
    ({!Numerics.Linalg.null_space}), x = Z β, so they hold by
    construction. *)

open Numerics

type problem = {
  h : Mat.t;  (** n × n, symmetric positive definite *)
  g : Vec.t;  (** linear term, length n *)
  ineq : (Mat.t * Vec.t) option;  (** inequality rows A and bounds b of A x ≥ b *)
}

type status =
  | Converged  (** every row holds to the feasibility tolerance *)
  | Stalled
      (** the cycle guard fired first, or the rows admit no feasible
          point — the iterate is dual feasible but violates a row *)

type solution = {
  x : Vec.t;
  active : int list;  (** the active set at the solution, ascending *)
  iterations : int;  (** passes: the first scan, then one per add or drop *)
  kkt_residual : float;
      (** infinity norm of the stationarity residual Hx + g − Aᵀu over the
          exact multipliers u, relative to max(1, ‖g‖∞, ‖H‖max) *)
  status : status;
}

val unconstrained : Mat.t -> Vec.t -> Vec.t
(** Minimizer of the pure quadratic: solves [H x = −g]. *)

val solve : ?on_iteration:(int -> unit) -> ?tol:float -> ?max_iter:int -> problem -> solution
(** Full solve. It stops when the lowest slack of the rows outside the
    active set is at least −tol·max(1, ‖b‖∞, ‖A x‖∞) (default [tol] 1e-9,
    floored at 1e-12 so rounding-level slacks of dependent rows do not
    count as violations).

    One iteration is one pass: pass 1 is the unconstrained minimizer plus
    the first scan, and every later pass is one add or one drop. The
    method is finite, so [max_iter] is a cycle guard. Each pass adds at
    most one row, so its default is sized to the problem: 2·(n + m)
    passes for m rows.
    Reaching it without convergence is not an exception: the last iterate
    comes back with [status = Stalled] (and [iterations = max_iter]), so
    callers decide what a stall means — [Solver.solve] turns it into a
    typed [Qp_stalled] error. Rows that admit no feasible point (a
    violated row dependent on the active set, with no active multiplier
    to drop for it) also end as [Stalled], at the pass that finds it.

    [on_iteration] is invoked with the 1-based pass count at the top of
    every pass, before any work for that pass is done, so every solve
    calls it at least once. It may raise to abort the solve — the hook
    for external deadline/budget enforcement without this module
    depending on any policy layer. Each pass emits one ["qp.iteration"]
    point on the [qp.solve] span with the scaled [max_violation] of the
    rows outside the active set and the [active] count. *)
