open Testutil

let test_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let result = Optimize.Nelder_mead.minimize f ~x0:[| 0.0; 0.0 |] in
  check_true "converged" result.Optimize.Nelder_mead.converged;
  check_vec ~tol:1e-4 "quadratic minimum" [| 3.0; -1.0 |] result.Optimize.Nelder_mead.x;
  check_close ~tol:1e-7 "minimum value" 0.0 result.Optimize.Nelder_mead.f

let test_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let options = { Optimize.Nelder_mead.default_options with max_iter = 5000 } in
  let result = Optimize.Nelder_mead.minimize ~options f ~x0:[| -1.2; 1.0 |] in
  check_vec ~tol:1e-3 "rosenbrock minimum" [| 1.0; 1.0 |] result.Optimize.Nelder_mead.x

let test_one_dimensional () =
  let f x = Float.cos x.(0) in
  let result = Optimize.Nelder_mead.minimize f ~x0:[| 2.5 |] in
  check_close ~tol:1e-4 "cos minimum at pi" Float.pi result.Optimize.Nelder_mead.x.(0)

let test_four_dimensional_sphere () =
  let f x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
  let options = { Optimize.Nelder_mead.default_options with max_iter = 4000 } in
  let result = Optimize.Nelder_mead.minimize ~options f ~x0:[| 1.0; -2.0; 3.0; -4.0 |] in
  check_true "near origin" (norm2 result.Optimize.Nelder_mead.x < 1e-3)

let test_evaluation_count () =
  let count = ref 0 in
  let f x =
    incr count;
    x.(0) *. x.(0)
  in
  let result = Optimize.Nelder_mead.minimize f ~x0:[| 5.0 |] in
  Alcotest.(check int) "reported evaluations" !count result.Optimize.Nelder_mead.evaluations

let test_max_iter_respected () =
  let f x = x.(0) *. x.(0) in
  let options = { Optimize.Nelder_mead.default_options with max_iter = 3 } in
  let result = Optimize.Nelder_mead.minimize ~options f ~x0:[| 100.0 |] in
  check_true "stops at limit" (result.Optimize.Nelder_mead.iterations <= 3);
  check_true "not converged" (not result.Optimize.Nelder_mead.converged)

let test_bounded () =
  (* Unconstrained optimum at (3, -1); box [0,2] x [0,2] clamps it. *)
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let result =
    Optimize.Nelder_mead.minimize_bounded ~lo:[| 0.0; 0.0 |] ~hi:[| 2.0; 2.0 |] f
      ~x0:[| 1.0; 1.0 |]
  in
  check_vec ~tol:1e-3 "clamped optimum" [| 2.0; 0.0 |] result.Optimize.Nelder_mead.x

let tests =
  [
    ( "nelder-mead",
      [
        case "quadratic bowl" test_quadratic;
        case "rosenbrock" test_rosenbrock;
        case "one dimensional" test_one_dimensional;
        case "4d sphere" test_four_dimensional_sphere;
        case "evaluation count" test_evaluation_count;
        case "max iterations" test_max_iter_respected;
        case "bounded" test_bounded;
      ] );
  ]
