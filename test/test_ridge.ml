open Numerics
open Testutil

(* A small well-conditioned regression problem. *)
let make_problem () =
  let xs = Vec.linspace 0.0 1.0 30 in
  let a = Mat.init 30 3 (fun i j -> xs.(i) ** float_of_int j) in
  let b = Array.map (fun x -> 1.0 +. (2.0 *. x) -. (0.5 *. x *. x)) xs in
  (a, b)

let identity_penalty n = Mat.identity n

let test_zero_lambda_equals_lstsq () =
  let a, b = make_problem () in
  let fit = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:0.0 () in
  let lstsq = Linalg.qr_lstsq a b in
  check_vec ~tol:1e-8 "lambda 0 = least squares" lstsq fit.Ridge_oracle.x;
  check_vec ~tol:1e-8 "recovers polynomial" [| 1.0; 2.0; -0.5 |] fit.Ridge_oracle.x;
  check_close ~tol:1e-10 "zero residuals" 0.0 fit.Ridge_oracle.rss

let test_large_lambda_shrinks () =
  let a, b = make_problem () in
  let small = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:1e-6 () in
  let large = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:1e8 () in
  check_true "large lambda shrinks coefficients"
    (Vec.norm2 large.Ridge_oracle.x < 0.01 *. Vec.norm2 small.Ridge_oracle.x)

let test_edf_range () =
  let a, b = make_problem () in
  let fit0 = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:1e-10 () in
  check_close ~tol:1e-3 "edf at lambda 0 = n_params" 3.0 fit0.Ridge_oracle.edf;
  let fit_inf = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:1e10 () in
  check_true "edf decreases with lambda" (fit_inf.Ridge_oracle.edf < 0.01)

let test_edf_monotone () =
  let a, b = make_problem () in
  let previous = ref Float.infinity in
  List.iter
    (fun lambda ->
      let fit = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda () in
      check_true "edf monotone in lambda" (fit.Ridge_oracle.edf <= !previous +. 1e-9);
      previous := fit.Ridge_oracle.edf)
    [ 1e-8; 1e-4; 1e-2; 1.0; 100.0 ]

let test_weights_pull_fit () =
  (* Two inconsistent measurements of one parameter: the weighted fit sits
     closer to the heavier point. *)
  let a = Mat.of_rows [| [| 1.0 |]; [| 1.0 |] |] in
  let b = [| 0.0; 1.0 |] in
  let fit =
    Ridge_oracle.solve ~a ~b ~weights:[| 9.0; 1.0 |] ~penalty:(Mat.zeros 1 1) ~lambda:0.0 ()
  in
  check_close ~tol:1e-10 "weighted mean" 0.1 fit.Ridge_oracle.x.(0)

let test_normal_matrix () =
  let a, _ = make_problem () in
  let w = Vec.ones 30 in
  let p = identity_penalty 3 in
  let normal = Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:p ~lambda:2.0 in
  let expected = Mat.add (Mat.gram a) (Mat.scale 2.0 p) in
  check_true "AtWA + lambda P" (Mat.approx_equal ~tol:1e-9 expected normal)

let test_gcv_finite_and_positive () =
  let a, b = make_problem () in
  let noisy = Array.mapi (fun i v -> v +. (0.05 *. Float.sin (float_of_int (7 * i)))) b in
  List.iter
    (fun lambda ->
      let fit = Ridge_oracle.solve ~a ~b:noisy ~penalty:(identity_penalty 3) ~lambda () in
      check_true "gcv finite" (Float.is_finite fit.Ridge_oracle.gcv);
      check_true "gcv positive" (fit.Ridge_oracle.gcv >= 0.0))
    [ 1e-6; 1e-3; 1.0 ]

let test_fitted_and_residuals_consistent () =
  let a, b = make_problem () in
  let fit = Ridge_oracle.solve ~a ~b ~penalty:(identity_penalty 3) ~lambda:0.1 () in
  check_vec ~tol:1e-10 "fitted = A x" (Mat.mv a fit.Ridge_oracle.x) fit.Ridge_oracle.fitted;
  check_vec ~tol:1e-10 "residual identity" (Vec.sub b fit.Ridge_oracle.fitted)
    fit.Ridge_oracle.residuals

let tests =
  [
    ( "ridge",
      [
        case "lambda 0 equals least squares" test_zero_lambda_equals_lstsq;
        case "large lambda shrinks" test_large_lambda_shrinks;
        case "edf range" test_edf_range;
        case "edf monotone" test_edf_monotone;
        case "weights pull the fit" test_weights_pull_fit;
        case "normal matrix assembly" test_normal_matrix;
        case "gcv finite" test_gcv_finite_and_positive;
        case "fitted/residual consistency" test_fitted_and_residuals_consistent;
      ] );
  ]
