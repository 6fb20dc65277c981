(** The integral-transform kernel Q(φ, t) of paper eq. 3.

    Q̃(φ, t) is the expected single-cell volume density over phase;
    Q = Q̃ / ∫Q̃ dφ is the fractional volume density: the fraction of total
    population volume near phase φ at time t. Both are estimated from a
    Monte-Carlo population simulation by volume-weighted deposition onto a
    phase grid. *)

open Numerics

type t = {
  phases : Vec.t;  (** phase-bin centers, length [n_phi] *)
  bin_width : float;
  times : Vec.t;
  q : Mat.t;  (** normalized kernel; row m is Q(·, times.(m)), ∫Q dφ = 1 *)
  q_tilde : Mat.t;  (** unnormalized volume density (per founder cell) *)
}

val estimate :
  ?smooth_window:int ->
  Params.t ->
  rng:Rng.t ->
  n_cells:int ->
  times:Vec.t ->
  n_phi:int ->
  t
(** Simulate [n_cells] founders and deposit cell volumes onto [n_phi] bins
    with linear (cloud-in-cell) weighting to reduce discretization noise.
    [smooth_window] (odd, default 1 = off) applies a triangular moving
    average to each time row before normalization. *)

val row : t -> int -> Vec.t
(** Q(·, times.(m)). *)

val integrate_profile : t -> Vec.t -> Vec.t
(** [integrate_profile k f] computes G(t_m) = ∫ Q(φ, t_m) f(φ) dφ for a
    profile sampled on [k.phases] (midpoint rule). *)

val check_normalization : t -> float
(** max_m |∫Q(φ, t_m) dφ − 1| — should be ~0. *)

val save : t -> path:string -> unit
(** Persist the kernel (a plain text format with a version header) so the
    expensive Monte-Carlo estimation can be reused across runs and
    shared between the CLI's [kernel] and [deconvolve] commands. *)

val load : path:string -> t
(** Inverse of {!save}. Raises [Failure] on format or consistency
    violations. *)
