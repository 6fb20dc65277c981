(* erf via 32-point Gauss–Legendre quadrature of its defining integral on
   [0, x]; the integrand is entire, so this is accurate to near machine
   precision for |x| <= 6. Nodes are computed once, at module
   initialisation. *)
let erf_nodes = Integrate.gauss_legendre_nodes 32

let erf x =
  if Float.abs x > 6.0 then if x > 0.0 then 1.0 else -1.0
  else begin
    let nodes, weights = erf_nodes in
    let half = x /. 2.0 in
    let acc = ref 0.0 in
    for i = 0 to Array.length nodes - 1 do
      let t = half +. (half *. nodes.(i)) in
      acc := !acc +. (weights.(i) *. exp (-.(t *. t)))
    done;
    2.0 /. sqrt Float.pi *. !acc *. half
  end

let erfc x = 1.0 -. erf x

let normal_pdf ~mean ~std x =
  assert (std > 0.0);
  let z = (x -. mean) /. std in
  exp (-0.5 *. z *. z) /. (std *. sqrt (2.0 *. Float.pi))

let normal_cdf ~mean ~std x =
  assert (std > 0.0);
  let z = (x -. mean) /. (std *. sqrt 2.0) in
  0.5 *. (1.0 +. erf z)

(* Acklam's inverse normal CDF approximation. *)
let standard_ppf p =
  assert (p > 0.0 && p < 1.0);
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* One Halley refinement using the exact CDF/PDF. *)
  let e = (0.5 *. erfc (-.x /. sqrt 2.0)) -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let normal_ppf ~mean ~std p =
  assert (std > 0.0);
  mean +. (std *. standard_ppf p)

(* Lanczos approximation with g = 7, n = 9 coefficients. *)
let rec log_gamma x =
  assert (x > 0.0);
  let g = 7.0 in
  let coefficients =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6;
       1.5056327351493116e-7 |]
  in
  if x < 0.5 then
    (* Reflection formula. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma_positive (1.0 -. x) g coefficients
  else log_gamma_positive x g coefficients

and log_gamma_positive x g coefficients =
  let x = x -. 1.0 in
  let acc = ref coefficients.(0) in
  for i = 1 to Array.length coefficients - 1 do
    acc := !acc +. (coefficients.(i) /. (x +. float_of_int i))
  done;
  let t = x +. g +. 0.5 in
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

(* Regularized lower incomplete gamma P(a,x), Numerical Recipes style. *)
let gamma_inc_lower ~a x =
  assert (a > 0.0);
  assert (x >= 0.0);
  if Float.equal x 0.0 then 0.0
  else if x < a +. 1.0 then begin
    (* Series representation. *)
    let rec series n term sum =
      if n > 500 || Float.abs term < Float.abs sum *. 1e-15 then sum
      else begin
        let term = term *. x /. (a +. float_of_int n) in
        series (n + 1) term (sum +. term)
      end
    in
    let first = 1.0 /. a in
    let sum = series 1 first first in
    sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)
  end
  else begin
    (* Continued fraction for Q(a,x) by modified Lentz. *)
    let tiny = 1e-300 in
    let b = ref (x +. 1.0 -. a) in
    let c = ref (1.0 /. tiny) in
    let d = ref (1.0 /. !b) in
    let h = ref !d in
    (try
       for i = 1 to 500 do
         let an = -.float_of_int i *. (float_of_int i -. a) in
         b := !b +. 2.0;
         d := (an *. !d) +. !b;
         if Float.abs !d < tiny then d := tiny;
         c := !b +. (an /. !c);
         if Float.abs !c < tiny then c := tiny;
         d := 1.0 /. !d;
         let delta = !d *. !c in
         h := !h *. delta;
         if Float.abs (delta -. 1.0) < 1e-15 then raise Exit
       done
     with Exit -> ());
    let q = exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h in
    1.0 -. q
  end

let chi2_cdf ~dof x =
  assert (dof >= 1);
  if x <= 0.0 then 0.0 else gamma_inc_lower ~a:(float_of_int dof /. 2.0) (x /. 2.0)

let chi2_sf ~dof x = 1.0 -. chi2_cdf ~dof x
