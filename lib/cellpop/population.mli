(** Monte-Carlo simulation of an asynchronously growing cell population.

    Cells progress through phase linearly at rate 1/T_k; on reaching φ = 1
    a cell divides into a swarmer daughter (φ = 0) and a stalked daughter
    (φ = its own φ_sst), each with freshly drawn θ_k (paper §2.1). *)

open Numerics

type snapshot = {
  time : float;  (** minutes since the start of the experiment *)
  cells : Cell.t array;
}

val simulate : Params.t -> rng:Rng.t -> n0:int -> times:Vec.t -> snapshot array
(** [simulate params ~rng ~n0 ~times] founds [n0] cells per the initial
    condition and records the population at each requested time (increasing,
    first may be 0). Division events are located exactly in time (phase
    progression is linear), so results do not depend on an integration
    step.

    Founder cells are simulated in fixed 256-founder chunks, each with its
    own [Rng.split] substream, fanned across the default {!Parallel} pool.
    The chunk schedule depends only on [n0], so the snapshots (and the
    final state of [rng]) are bit-for-bit identical at every jobs
    setting. *)

val count : snapshot -> int

val phases : snapshot -> Vec.t

val mean_signal : Params.t -> (phi:float -> float) -> snapshot -> float
(** Volume-weighted population average of a per-cell phase profile:
    Σ v_k f(φ_k) / Σ v_k — the exact Monte-Carlo counterpart of
    G(t) = ∫Qf dφ, used to validate the discretized kernel. *)

val growth_rate : ?discard:float -> snapshot array -> float
(** Asymptotic exponential growth rate r (per minute) from a least-squares
    fit of ln N(t) over snapshots with [time >= discard] (default: the
    first half of the observation window is discarded as transient).
    Requires at least two retained snapshots with positive counts. *)

val euler_lotka_rate : Params.t -> float
(** The deterministic (zero-variance) prediction of the asymptotic growth
    rate: Caulobacter division is a two-type branching process — the
    swarmer daughter divides after a full cycle T, the stalked daughter
    after T·(1 − φ_sst) — whose Malthusian parameter r solves the
    Euler–Lotka equation

    1 = e^{−rT} + e^{−rT(1−μ_sst)}.

    The doubling time is ln 2 / r (shorter than T because stalked daughters
    skip the swarmer stage). *)
