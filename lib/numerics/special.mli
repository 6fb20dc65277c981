(** Special functions used by the statistical models: Gaussian
    density/CDF/quantile (through the error function), log-gamma and the
    χ² tail. *)

val normal_pdf : mean:float -> std:float -> float -> float
val normal_cdf : mean:float -> std:float -> float -> float

(* lint: allow R15 — the inverse of [normal_cdf]; test/test_special.ml checks its round
   trip and tabulated quantiles *)
val normal_ppf : mean:float -> std:float -> float -> float
(** Inverse CDF (Acklam's rational approximation, refined by one Halley
    step). Input must lie strictly in (0, 1). *)

(* lint: allow R15 — the special function under [chi2_sf]; test/test_special.ml checks
   it against tabulated values *)
val log_gamma : float -> float
(** Lanczos approximation, valid for positive arguments. *)

(* lint: allow R15 — the special function under [chi2_sf]; test/test_special.ml checks
   it against tabulated values *)
val gamma_inc_lower : a:float -> float -> float
(** Regularized lower incomplete gamma P(a, x) ∈ [0, 1] (series for
    x < a+1, continued fraction otherwise). Requires [a > 0], [x >= 0]. *)

val chi2_sf : dof:int -> float -> float
(** χ² survival function (the lack-of-fit p-value companion). *)
