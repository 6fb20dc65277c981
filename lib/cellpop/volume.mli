(** Cell-volume models v_k(φ) (paper §3.1).

    Both models satisfy the division-partition values of paper eqs. 6–8:
    v(0) = 0.4·V0, v(φ_sst) = 0.6·V0, v(1) = V0 (40 % of the mother volume
    goes to the swarmer daughter, 60 % to the stalked daughter, Thanbichler
    & Shapiro 2006). The smooth model additionally satisfies the
    rate-continuity conditions of eqs. 9–10: v'(0) = v'(φ_sst) = v'(1). *)

val eval : Params.t -> phi_sst:float -> float -> float
(** v(φ) for a cell with transition phase [phi_sst] and final volume
    [Params.v0], by [Params.volume_model]: [Linear] is the
    piecewise-linear model of the 2009 paper, [Smooth] the piecewise
    polynomial of paper eq. 11 (cubic before φ_sst, linear after). *)
