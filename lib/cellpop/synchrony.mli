(** Quantifying how synchronized a population is — and how fast a
    synchronized batch culture decays back to asynchrony, which is exactly
    the information the deconvolution kernel encodes. *)

open Numerics

val over_time : Population.snapshot array -> Vec.t * Vec.t
(** [(order_parameters, entropies)] per snapshot. The Kuramoto order
    parameter R = |⟨e^{2πiφ}⟩| ∈ [0, 1] is 1 for a perfectly synchronized
    population and ~0 for phases spread uniformly; the entropy is the
    normalized Shannon entropy of a 50-bin phase histogram in [0, 1]:
    0 = concentrated in one bin, 1 = uniform. *)

val decay_time : Vec.t -> times:Vec.t -> threshold:float -> float option
(** First time the order parameter falls below [threshold] (linear
    interpolation between snapshots); [None] if it never does. *)
