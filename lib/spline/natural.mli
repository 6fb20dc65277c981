(** Natural cubic spline basis — the representation used by the paper
    (eq. 4): piecewise cubic polynomials, linear beyond the boundary knots.

    The construction is the truncated-power natural basis (Hastie et al.,
    *Elements of Statistical Learning*, §5.2.1): for knots ξ_1 < … < ξ_K,

    - N_1(x) = 1, N_2(x) = x,
    - N_{k+2}(x) = d_k(x) − d_{K−1}(x) with
      d_k(x) = ((x−ξ_k)_+³ − (x−ξ_K)_+³) / (ξ_K − ξ_k).

    The basis has exactly K functions and every combination satisfies the
    natural boundary conditions f'' = f''' = 0 outside [ξ_1, ξ_K]. *)


val with_uniform_knots : lo:float -> hi:float -> num_knots:int -> Basis.t
