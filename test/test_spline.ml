open Numerics
open Testutil

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:8

let test_size () =
  Alcotest.(check int) "one basis function per knot" 8 basis.Spline.Basis.size;
  check_close "lo" 0.0 basis.Spline.Basis.lo;
  check_close "hi" 1.0 basis.Spline.Basis.hi

let test_contains_constants_and_linear () =
  (* psi_0 = 1, psi_1 = x by construction. *)
  List.iter
    (fun x ->
      check_close ~tol:1e-12 "constant" 1.0 (basis.Spline.Basis.eval 0 x);
      check_close ~tol:1e-12 "linear" x (basis.Spline.Basis.eval 1 x))
    [ 0.0; 0.17; 0.5; 0.99; 1.0 ]

let test_natural_boundary_conditions () =
  (* Natural splines have zero second derivative at both boundary knots. *)
  for i = 0 to basis.Spline.Basis.size - 1 do
    check_close ~tol:1e-9 "f'' at 0" 0.0 (basis.Spline.Basis.deriv2 i 0.0);
    check_close ~tol:1e-9 "f'' at 1" 0.0 (basis.Spline.Basis.deriv2 i 1.0)
  done

let test_derivatives_match_finite_differences () =
  let h = 1e-6 in
  for i = 0 to basis.Spline.Basis.size - 1 do
    List.iter
      (fun x ->
        let f = basis.Spline.Basis.eval i in
        check_close ~tol:1e-4
          (Printf.sprintf "deriv basis %d at %g" i x)
          (fd_deriv f x h) (basis.Spline.Basis.deriv i x);
        check_close ~tol:1e-2
          (Printf.sprintf "deriv2 basis %d at %g" i x)
          (fd_deriv2 f x 1e-4) (basis.Spline.Basis.deriv2 i x))
      (* Stay away from knots where the third derivative jumps. *)
      [ 0.06; 0.2; 0.48; 0.63; 0.91 ]
  done

let test_continuity_at_knots () =
  (* Value, first and second derivative are continuous across each knot. *)
  let eps = 1e-7 in
  let knots = basis.Spline.Basis.breaks in
  for i = 0 to basis.Spline.Basis.size - 1 do
    for k = 1 to Array.length knots - 2 do
      let x = knots.(k) in
      let f = basis.Spline.Basis.eval i in
      check_close ~tol:1e-5 "value continuous" (f (x -. eps)) (f (x +. eps));
      let d = basis.Spline.Basis.deriv i in
      check_close ~tol:1e-4 "deriv continuous" (d (x -. eps)) (d (x +. eps));
      let d2 = basis.Spline.Basis.deriv2 i in
      check_close ~tol:1e-3 "deriv2 continuous" (d2 (x -. eps)) (d2 (x +. eps))
    done
  done

let test_combine () =
  let alpha = Array.init basis.Spline.Basis.size (fun i -> float_of_int i) in
  let x = 0.37 in
  let direct = ref 0.0 in
  for i = 0 to basis.Spline.Basis.size - 1 do
    direct := !direct +. (alpha.(i) *. basis.Spline.Basis.eval i x)
  done;
  check_close ~tol:1e-12 "combine" !direct (Spline.Basis.combine_many basis alpha [| x |]).(0)

let test_design_matrix () =
  let grid = Vec.linspace 0.0 1.0 11 in
  let d = Spline.Basis.design basis grid in
  Alcotest.(check (pair int int)) "design dims" (11, 8) (Mat.dims d);
  check_close ~tol:1e-12 "design entry" (basis.Spline.Basis.eval 3 grid.(5)) (Mat.get d 5 3)

let test_interpolation_power () =
  (* A natural spline basis on K knots can reproduce any function that is
     itself a natural cubic spline; check it can least-squares-fit a smooth
     target closely. *)
  let grid = Vec.linspace 0.0 1.0 101 in
  let target = Array.map (fun x -> Float.sin (2.0 *. Float.pi *. x) +. 2.0) grid in
  let d = Spline.Basis.design basis grid in
  let alpha = Linalg.qr_lstsq d target in
  let fitted = Mat.mv d alpha in
  check_true "smooth target well approximated" (Stats.rmse target fitted < 0.02)

let bspline = Spline.Bspline.create ~lo:0.0 ~hi:1.0 ~num_basis:9

let test_bspline_partition_of_unity () =
  List.iter
    (fun x ->
      let total = ref 0.0 in
      for i = 0 to bspline.Spline.Basis.size - 1 do
        total := !total +. bspline.Spline.Basis.eval i x
      done;
      check_close ~tol:1e-10 (Printf.sprintf "partition of unity at %g" x) 1.0 !total)
    [ 0.0; 0.01; 0.3; 0.5; 0.77; 0.99; 1.0 ]

let test_bspline_nonnegative () =
  for i = 0 to bspline.Spline.Basis.size - 1 do
    for j = 0 to 100 do
      let x = float_of_int j /. 100.0 in
      check_true "bspline nonnegative" (bspline.Spline.Basis.eval i x >= -1e-12)
    done
  done

let test_bspline_endpoint_values () =
  check_close ~tol:1e-12 "first basis at lo" 1.0 (bspline.Spline.Basis.eval 0 0.0);
  check_close ~tol:1e-12 "last basis at hi" 1.0
    (bspline.Spline.Basis.eval (bspline.Spline.Basis.size - 1) 1.0);
  check_close ~tol:1e-12 "others vanish at lo" 0.0 (bspline.Spline.Basis.eval 2 0.0)

let test_bspline_derivative_sum_zero () =
  (* Derivative of the partition of unity is zero. *)
  List.iter
    (fun x ->
      let total = ref 0.0 in
      for i = 0 to bspline.Spline.Basis.size - 1 do
        total := !total +. bspline.Spline.Basis.deriv i x
      done;
      check_close ~tol:1e-9 "derivative sum" 0.0 !total)
    [ 0.1; 0.42; 0.9 ]

let test_bspline_derivatives_fd () =
  let h = 1e-6 in
  for i = 0 to bspline.Spline.Basis.size - 1 do
    List.iter
      (fun x ->
        let f = bspline.Spline.Basis.eval i in
        check_close ~tol:1e-4 "bspline deriv fd" (fd_deriv f x h) (bspline.Spline.Basis.deriv i x);
        check_close ~tol:1e-2 "bspline deriv2 fd" (fd_deriv2 f x 1e-4)
          (bspline.Spline.Basis.deriv2 i x))
      [ 0.055; 0.21; 0.38; 0.61; 0.83 ]
  done

let test_penalty_symmetric_psd () =
  List.iter
    (fun b ->
      let omega = Spline.Penalty.second_derivative b in
      check_true "penalty symmetric" (is_symmetric ~tol:1e-9 omega);
      (* PSD to rounding: Ω + 1e-8·I admits a Cholesky factor. *)
      let n = omega.Mat.rows in
      match Linalg.cholesky_factor (Mat.add omega (Mat.scale 1e-8 (Mat.identity n))) with
      | _ -> ()
      | exception Linalg.Singular _ -> Alcotest.fail "penalty not PSD")
    [ basis; bspline ]

let test_penalty_annihilates_linear () =
  (* Constant and linear basis members have zero roughness. *)
  let omega = Spline.Penalty.second_derivative basis in
  let e0 = Array.init basis.Spline.Basis.size (fun i -> if i = 0 then 1.0 else 0.0) in
  let e1 = Array.init basis.Spline.Basis.size (fun i -> if i = 1 then 1.0 else 0.0) in
  check_close ~tol:1e-10 "constant roughness" 0.0 (Vec.dot e0 (Mat.mv omega e0));
  check_close ~tol:1e-10 "linear roughness" 0.0 (Vec.dot e1 (Mat.mv omega e1))

let test_penalty_matches_numeric_integral () =
  (* Quadratic form equals a brute-force integral of (f'')^2. *)
  let rng = Rng.create 88 in
  let alpha = Array.init basis.Spline.Basis.size (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let omega = Spline.Penalty.second_derivative basis in
  let quadratic = Vec.dot alpha (Mat.mv omega alpha) in
  let f2 x =
    let acc = ref 0.0 in
    for i = 0 to basis.Spline.Basis.size - 1 do
      acc := !acc +. (alpha.(i) *. basis.Spline.Basis.deriv2 i x)
    done;
    !acc *. !acc
  in
  let numeric = Integrate.simpson f2 ~a:0.0 ~b:1.0 ~n:20000 in
  check_rel ~tol:1e-5 "penalty = int f''^2" numeric quadratic

let test_gram_matches_numeric () =
  let grid = Vec.linspace 0.0 1.0 2001 in
  let g = Spline.Penalty.gram basis grid in
  check_true "gram symmetric" (is_symmetric ~tol:1e-9 g);
  (* <1, 1> = 1 over [0,1]. *)
  check_close ~tol:1e-6 "gram constant" 1.0 (Mat.get g 0 0);
  (* <1, x> = 1/2, <x, x> = 1/3. *)
  check_close ~tol:1e-6 "gram <1,x>" 0.5 (Mat.get g 0 1);
  check_close ~tol:1e-6 "gram <x,x>" (1.0 /. 3.0) (Mat.get g 1 1)

let test_knots () =
  check_vec ~tol:1e-12 "uniform knots" [| 0.0; 0.5; 1.0 |] (Spline.Knots.uniform ~lo:0.0 ~hi:1.0 3)

let tests =
  [
    ( "spline",
      [
        case "basis size" test_size;
        case "contains constants and linears" test_contains_constants_and_linear;
        case "natural boundary conditions" test_natural_boundary_conditions;
        case "derivatives match finite differences" test_derivatives_match_finite_differences;
        case "C2 continuity at knots" test_continuity_at_knots;
        case "combine" test_combine;
        case "design matrix" test_design_matrix;
        case "approximation power" test_interpolation_power;
        case "bspline partition of unity" test_bspline_partition_of_unity;
        case "bspline nonnegative" test_bspline_nonnegative;
        case "bspline endpoints" test_bspline_endpoint_values;
        case "bspline derivative sum" test_bspline_derivative_sum_zero;
        case "bspline derivatives fd" test_bspline_derivatives_fd;
        case "penalty symmetric PSD" test_penalty_symmetric_psd;
        case "penalty annihilates linears" test_penalty_annihilates_linear;
        case "penalty equals numeric integral" test_penalty_matches_numeric_integral;
        case "gram matrix" test_gram_matches_numeric;
        case "knot placement" test_knots;
      ] );
  ]
