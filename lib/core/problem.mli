(** A fully specified deconvolution problem: data, kernel, representation
    and which physical constraints to enforce. *)

open Numerics

type t = {
  kernel : Cellpop.Kernel.t;  (** Q(φ, t) on the measurement times *)
  basis : Spline.Basis.t;  (** representation of f (paper eq. 4) *)
  measurements : Vec.t;  (** G(t_m) *)
  sigmas : Vec.t;  (** per-measurement standard deviations σ_m *)
  params : Cellpop.Params.t;  (** population model behind the constraints *)
  design : Mat.t;
      (** forward matrix A·Ψ, assembled once by {!create} — prefer the
          {!design} accessor *)
  penalty : Mat.t;
      (** roughness penalty Ω, assembled once by {!create} — prefer the
          {!penalty} accessor *)
  equality : Mat.t option;
      (** equality rows C with Cα = 0, built once by {!create}: the
          conservation row ({!Constraints.conservation_row}), then the
          rate-continuity row ({!Constraints.rate_continuity_row}), each
          present only when its flag is on; [None] when both are off *)
  null_space : Mat.t;
      (** Z = {!Numerics.Linalg.null_space} of [equality] (CZ = 0), or the
          identity when [equality] is [None], built once by {!create}. The
          constrained solve runs on the free coefficients β and returns
          α = Zβ, so the equality rows hold by construction. *)
  positivity : Mat.t option;
      (** inequality rows Ψ(φ_g)·Z with ΨZβ ≥ 0 on g ∈ [0; kernel phases; 1]
          ({!Constraints.positivity_rows} times [null_space]), built once
          by {!create}; [None] when positivity is off *)
}
(** [design], [penalty], [equality], [null_space] and [positivity] depend
    only on the kernel, basis, params and constraint flags. {!with_data}
    is the one way to re-point a problem at new measurements or sigmas and
    keeps them; swapping the kernel, basis, params or constraint flags
    must go through {!create}, which rebuilds them. *)

val create :
  ?use_positivity:bool ->
  ?use_conservation:bool ->
  ?use_rate_continuity:bool ->
  ?sigmas:Vec.t ->
  kernel:Cellpop.Kernel.t ->
  basis:Spline.Basis.t ->
  measurements:Vec.t ->
  params:Cellpop.Params.t ->
  unit ->
  t
(** All constraints default to on (the paper's full method); [sigmas]
    default to all-ones (unweighted fit). Dimension compatibility is
    checked; a mismatch raises {!Robust.Error.Error} ([Invalid_input]),
    keeping the typed-error contract from the very first entry point.
    Equality rows that are linearly dependent (so no null-space basis can
    be built) raise [Invalid_input {field = "constraints"}].

    The only place the constraint blocks are built: each call runs inside
    a [problem.create] span (attributes [m_eq], [m_ineq]) and adds one to
    the [constraints.builds] counter of {!Obs.Metrics}. *)

val with_data : ?sigmas:Vec.t -> t -> Vec.t -> t
(** [with_data ?sigmas t measurements] is [t] with new measurements (and
    sigmas, which default to [t]'s), sharing every data-independent field:
    design, penalty and constraint blocks. Makes {!create}'s length checks
    and raises the same {!Robust.Error.Error} ([Invalid_input] on
    ["measurements"] or ["sigmas"]). Bootstrap replicates, batch genes and
    input repair all re-point through it. *)

val num_measurements : t -> int

val validate : t -> (unit, Robust.Error.t) result
(** Pre-solve validation: kernel well-formed (finite Q, sorted non-negative
    times, every row of mass ≈ 1), measurements finite, sigmas finite and
    strictly positive. Turns what used to be deep-in-the-stack crashes or
    silent NaN propagation into an early structured error; the robust
    solver calls this (after input repair) before touching the QP. The
    kernel is checked first, then the basis, then the measurements, then
    the sigmas; the first failure is returned. *)

val validate_data : t -> (unit, Robust.Error.t) result
(** The measurement and sigma part of {!validate} alone, for callers that
    checked the kernel and basis once for many data sets ({!Batch}). *)

val weights : t -> Vec.t
(** 1/σ_m² — the weights of the data-fidelity term in eq. 5. *)

val design : t -> Mat.t
(** Forward matrix A·Ψ from coefficients to predicted measurements.
    Precomputed by {!create}: every λ candidate, fold and bootstrap
    replicate reads the same assembly instead of re-integrating the
    kernel against the basis. *)

val penalty : t -> Mat.t
(** Roughness penalty Ω for the basis. Precomputed by {!create}. *)

val factorize : t -> Optimize.Spectral.t
(** Demmler–Reinsch factorization of the penalized system (AᵀWA, Ω), the
    one place it is formed. It depends on kernel, basis and σ only, not
    on the measurements. Raises {!Numerics.Linalg.Singular} when even the
    anchored Gram side cannot be factored. *)
