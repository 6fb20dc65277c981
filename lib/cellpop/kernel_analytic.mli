(** Deterministic (quadrature-based) evaluation of the kernel for the
    FIRST cell cycle of a synchronized culture — before any division has
    occurred, the phase of founder k is exactly φ_k(t) = φ_k(0) + t/T_k
    with φ_k(0) ~ U(0, φ_sst_k), so Q̃(φ, t) is a double integral over the
    (T, φ_sst) population distribution with no Monte-Carlo error.

    This provides ground truth for validating the Monte-Carlo estimator in
    {!Kernel} (convergence as the cell count grows) and an alternative
    kernel for short experiments. *)

open Numerics

val valid_until : Params.t -> float
(** A conservative upper bound on the experiment time for which the
    no-division assumption holds for essentially all cells (the 3σ-fastest
    cell starting closest to division). *)

val estimate : ?quad_nodes:int -> Params.t -> times:Vec.t -> n_phi:int -> Kernel.t
(** Full kernel on the standard bin-center grid; rows are normalized like
    the Monte-Carlo kernel. All [times] should be below {!valid_until}
    (checked with an assertion). *)
