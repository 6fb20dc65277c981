(** Canonical reaction networks used in tests and experiments. *)

val lotka_volterra :
  a:float -> b:float -> c:float -> d:float -> volume:float -> Reaction_network.t
(** The stochastic counterpart of the paper's oscillator (eqs. 20–21) in a
    reaction volume Ω:

    - prey birth:      X1 → 2·X1 at rate a
    - predation:       X1 + X2 → X2 at stochastic rate b/Ω
    - predator birth:  X1 + X2 → X1 + 2·X2 at stochastic rate c/Ω
    - predator death:  X2 → ∅ at rate d

    Copy-number means n_i/Ω follow the deterministic LV equations; larger Ω
    means smaller intrinsic noise. Species: [x1; x2]. *)

val concentrations_to_counts : volume:float -> Numerics.Vec.t -> int array
(** Round concentrations into copy numbers for a given volume. *)

