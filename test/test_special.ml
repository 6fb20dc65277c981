open Numerics
open Testutil

(* erf through the normal CDF with σ = 1/√2: Φ(x) = (1 + erf x)/2. *)
let erf x = (2.0 *. Special.normal_cdf ~mean:0.0 ~std:(1.0 /. sqrt 2.0) x) -. 1.0

let test_erf_table () =
  (* Reference values from Abramowitz & Stegun tables. *)
  check_close ~tol:1e-9 "erf 0" 0.0 (erf 0.0);
  check_close ~tol:1e-9 "erf 0.5" 0.5204998778 (erf 0.5);
  check_close ~tol:1e-9 "erf 1" 0.8427007929 (erf 1.0);
  check_close ~tol:1e-9 "erf 2" 0.9953222650 (erf 2.0);
  check_close ~tol:1e-9 "erf 3" 0.9999779095 (erf 3.0);
  check_close "erf big" 1.0 (erf 10.0)

let test_erf_odd () =
  for i = 1 to 20 do
    let x = 0.3 *. float_of_int i in
    check_close ~tol:1e-12 "erf odd" (-.erf x) (erf (-.x))
  done

let test_erfc () =
  (* The lower and upper tails complement: Φ(−x) + Φ(x) = 1. *)
  List.iter
    (fun x ->
      check_close ~tol:1e-12 "tails complement" 1.0
        (Special.normal_cdf ~mean:0.0 ~std:1.0 (-.x) +. Special.normal_cdf ~mean:0.0 ~std:1.0 x))
    [ 0.0; 0.7; 1.5; 3.0 ]

let test_normal_pdf () =
  check_close ~tol:1e-12 "standard pdf at 0" (1.0 /. sqrt (2.0 *. Float.pi))
    (Special.normal_pdf ~mean:0.0 ~std:1.0 0.0);
  (* Scale: pdf with std s at mean equals standard/s. *)
  check_close ~tol:1e-12 "scaled pdf" (1.0 /. (0.5 *. sqrt (2.0 *. Float.pi)))
    (Special.normal_pdf ~mean:3.0 ~std:0.5 3.0)

let test_normal_pdf_integrates_to_one () =
  let integral =
    Integrate.simpson (Special.normal_pdf ~mean:0.2 ~std:0.05) ~a:(-0.5) ~b:1.0 ~n:4000
  in
  check_close ~tol:1e-10 "pdf mass" 1.0 integral

let test_normal_cdf () =
  check_close ~tol:1e-12 "cdf at mean" 0.5 (Special.normal_cdf ~mean:2.0 ~std:3.0 2.0);
  check_close ~tol:1e-9 "cdf one sigma" 0.8413447461 (Special.normal_cdf ~mean:0.0 ~std:1.0 1.0);
  check_close ~tol:1e-9 "cdf minus two sigma" 0.0227501319
    (Special.normal_cdf ~mean:0.0 ~std:1.0 (-2.0))

let test_ppf_roundtrip () =
  List.iter
    (fun p ->
      let x = Special.normal_ppf ~mean:0.0 ~std:1.0 p in
      check_close ~tol:1e-8 (Printf.sprintf "ppf roundtrip %g" p) p
        (Special.normal_cdf ~mean:0.0 ~std:1.0 x))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_ppf_known () =
  check_close ~tol:1e-8 "median" 0.0 (Special.normal_ppf ~mean:0.0 ~std:1.0 0.5);
  check_close ~tol:1e-6 "95th percentile" 1.6448536270 (Special.normal_ppf ~mean:0.0 ~std:1.0 0.95);
  check_close ~tol:1e-6 "shifted/scaled" (10.0 +. (2.0 *. 1.6448536270))
    (Special.normal_ppf ~mean:10.0 ~std:2.0 0.95)

let test_log_gamma () =
  check_close ~tol:1e-10 "lgamma 1" 0.0 (Special.log_gamma 1.0);
  check_close ~tol:1e-10 "lgamma 2" 0.0 (Special.log_gamma 2.0);
  check_close ~tol:1e-9 "lgamma 5 = ln 24" (log 24.0) (Special.log_gamma 5.0);
  check_close ~tol:1e-9 "lgamma 0.5 = ln sqrt(pi)" (0.5 *. log Float.pi) (Special.log_gamma 0.5)

let test_log_gamma_recurrence () =
  (* Gamma(x+1) = x Gamma(x). *)
  List.iter
    (fun x ->
      check_close ~tol:1e-9 "recurrence"
        (Special.log_gamma x +. log x)
        (Special.log_gamma (x +. 1.0)))
    [ 0.3; 1.7; 4.2; 9.9 ]

let test_gamma_inc_lower () =
  check_close "P(a, 0) = 0" 0.0 (Special.gamma_inc_lower ~a:2.5 0.0);
  check_close ~tol:1e-10 "P(1, x) = 1 - e^-x" (1.0 -. exp (-1.7))
    (Special.gamma_inc_lower ~a:1.0 1.7);
  check_close ~tol:1e-9 "saturates to 1" 1.0 (Special.gamma_inc_lower ~a:3.0 1e4);
  (* Monotone in x. *)
  let prev = ref 0.0 in
  for i = 1 to 50 do
    let v = Special.gamma_inc_lower ~a:2.0 (0.2 *. float_of_int i) in
    check_true "monotone" (v >= !prev);
    prev := v
  done

let test_chi2 () =
  (* chi2(2) is exponential with mean 2. *)
  check_close ~tol:1e-10 "chi2 dof 2" (1.0 -. exp (-1.0)) (1.0 -. Special.chi2_sf ~dof:2 2.0);
  (* chi2(1) at 1.0 = P(|Z| <= 1). *)
  check_close ~tol:1e-8 "chi2 dof 1" 0.6826894921 (1.0 -. Special.chi2_sf ~dof:1 1.0);
  (* Standard critical value table: chi2_{0.95, 10} = 18.307. *)
  check_close ~tol:1e-3 "critical value" 0.05 (Special.chi2_sf ~dof:10 18.307);
  check_close "sf at 0" 1.0 (Special.chi2_sf ~dof:5 0.0)

let prop_cdf_monotone =
  qcheck ~count:100 "cdf monotone" QCheck2.Gen.(pair (float_range (-4.0) 4.0) (float_range 0.0 2.0))
    (fun (x, dx) ->
      Special.normal_cdf ~mean:0.0 ~std:1.0 x
      <= Special.normal_cdf ~mean:0.0 ~std:1.0 (x +. dx) +. 1e-12)

let tests =
  [
    ( "special",
      [
        case "erf table values" test_erf_table;
        case "erf oddness" test_erf_odd;
        case "erfc" test_erfc;
        case "normal pdf" test_normal_pdf;
        case "pdf integrates to one" test_normal_pdf_integrates_to_one;
        case "normal cdf" test_normal_cdf;
        case "ppf roundtrip" test_ppf_roundtrip;
        case "ppf known values" test_ppf_known;
        case "log gamma values" test_log_gamma;
        case "log gamma recurrence" test_log_gamma_recurrence;
        case "incomplete gamma" test_gamma_inc_lower;
        case "chi-square" test_chi2;
        prop_cdf_monotone;
      ] );
  ]
