(** Deterministic pseudo-random number generation.

    A small, fast, seedable generator (SplitMix64) so that every simulation
    in the library is exactly reproducible across runs and OCaml versions.
    All stochastic code in the repository threads an explicit [t]. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    produce equal streams. *)

(* lint: allow R15 — replays a stream: the k-fold test replays the selector's fold
   draws through it to score the oracle on the same folds *)
val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; streams of
    the parent and child are (statistically) independent. *)

val float : t -> float
(** Uniform float in [\[0, 1)] with 53 bits of precision. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform float in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian variate (Box–Muller; the spare value is cached). *)

val truncated_normal : t -> mean:float -> std:float -> lo:float -> hi:float -> float
(** Gaussian conditioned on [\[lo, hi\]], by rejection with a uniform
    fallback when the window is many standard deviations away. Requires
    [lo < hi]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with given rate (> 0). *)

(* lint: allow R15 — the Poisson sampler of the stochastic models; test/test_stochastic.ml
   checks its moments *)
val poisson : t -> lambda:float -> int
(** Poisson variate (Knuth's multiplication method for small means, normal
    approximation with continuity correction above mean 64). Requires
    [lambda >= 0]. *)

val lognormal_factor : t -> cv:float -> float
(** A mean-one multiplicative noise factor: exp(N(−σ²/2, σ²)) with σ chosen
    so the factor's coefficient of variation is [cv]. Returns 1.0 when
    [cv <= 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
