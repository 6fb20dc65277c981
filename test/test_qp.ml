open Numerics
open Testutil

let spd_2 = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 2.0 |] |]

let test_unconstrained () =
  (* min x^2 + y^2 - 2x - 4y -> (1, 2). H = 2I, g = (-2, -4). *)
  let x = Optimize.Qp.unconstrained spd_2 [| -2.0; -4.0 |] in
  check_vec ~tol:1e-10 "unconstrained min" [| 1.0; 2.0 |] x

let test_solve_no_constraints () =
  let solution =
    Optimize.Qp.solve { h = spd_2; g = [| -2.0; -4.0 |]; ineq = None }
  in
  check_vec ~tol:1e-10 "solve without constraints" [| 1.0; 2.0 |] solution.Optimize.Qp.x;
  check_true "tiny KKT residual" (solution.Optimize.Qp.kkt_residual < 1e-8)

let test_inactive_inequality () =
  (* Constraint x >= 0 is inactive at the unconstrained optimum (1,2). *)
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| -2.0; -4.0 |]; ineq = Some (a, [| 0.0 |]) }
  in
  check_vec ~tol:1e-5 "inactive constraint ignored" [| 1.0; 2.0 |] solution.Optimize.Qp.x

let test_active_inequality () =
  (* min (x+1)^2 + (y-2)^2 s.t. x >= 0: optimum clamps to x = 0. *)
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| 2.0; -4.0 |]; ineq = Some (a, [| 0.0 |]) }
  in
  check_vec ~tol:1e-5 "clamped solution" [| 0.0; 2.0 |] solution.Optimize.Qp.x;
  check_true "constraint reported active" (List.mem 0 solution.Optimize.Qp.active)

let test_mixed_constraints () =
  (* min (x-2)^2 + (y-2)^2 s.t. x - y = 0 (equality), x >= 2.5 (ineq).
     The equality holds by construction on x = Z beta with Z the one-column
     null space of [1 -1]; the reduced QP carries the inequality alone.
     Without the inequality: (2, 2). With it: (2.5, 2.5). *)
  let z = Linalg.null_space (Mat.of_rows [| [| 1.0; -1.0 |] |]) in
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      {
        h = Mat.matmul (Mat.transpose z) (Mat.matmul spd_2 z);
        g = Mat.tmv z [| -4.0; -4.0 |];
        ineq = Some (Mat.matmul a z, [| 2.5 |]);
      }
  in
  check_vec ~tol:1e-5 "mixed constraints" [| 2.5; 2.5 |] (Mat.mv z solution.Optimize.Qp.x)

let test_many_redundant_inequalities () =
  (* The positivity-on-a-grid pattern: many nearly identical rows. *)
  let n = 4 in
  let h = Mat.scale 2.0 (Mat.identity n) in
  let g = Array.init n (fun i -> if i = 0 then 4.0 else -2.0) in
  (* x_i >= 0 for all i, repeated three times each. *)
  let rows = Array.init (3 * n) (fun r -> Array.init n (fun j -> if j = r mod n then 1.0 else 0.0)) in
  let a = Mat.of_rows rows in
  let solution =
    Optimize.Qp.solve
      { h; g; ineq = Some (a, Vec.zeros (3 * n)) }
  in
  check_close ~tol:1e-5 "first coordinate clamped" 0.0 solution.Optimize.Qp.x.(0);
  for i = 1 to n - 1 do
    check_close ~tol:1e-5 "others at unconstrained optimum" 1.0 solution.Optimize.Qp.x.(i)
  done

let test_kkt_residual_small () =
  let rng = Rng.create 555 in
  let n = 6 in
  let base = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let h = Mat.add (Mat.gram base) (Mat.identity n) in
  let g = Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
  let a = Mat.identity n in
  let solution =
    Optimize.Qp.solve
      { h; g; ineq = Some (a, Vec.zeros n) }
  in
  check_true "KKT residual" (solution.Optimize.Qp.kkt_residual < 1e-6);
  Array.iter (fun xi -> check_true "feasible" (xi >= -1e-7)) solution.Optimize.Qp.x

let prop_ipm_matches_projection =
  (* For H = 2I, g = -2c, positivity x >= 0: solution is max(c, 0). *)
  qcheck ~count:50 "nonnegative projection"
    QCheck2.Gen.(array_size (int_range 1 6) (float_range (-3.0) 3.0))
    (fun c ->
      let n = Array.length c in
      let h = Mat.scale 2.0 (Mat.identity n) in
      let g = Vec.scale (-2.0) c in
      let solution =
        Optimize.Qp.solve
          { h; g; ineq = Some (Mat.identity n, Vec.zeros n) }
      in
      let expected = Array.map (fun v -> Float.max v 0.0) c in
      Vec.approx_equal ~tol:1e-5 expected solution.Optimize.Qp.x)

let tests =
  [
    ( "qp",
      [
        case "unconstrained" test_unconstrained;
        case "solve without constraints" test_solve_no_constraints;
        case "inactive inequality" test_inactive_inequality;
        case "active inequality" test_active_inequality;
        case "mixed constraints" test_mixed_constraints;
        case "redundant inequality grid" test_many_redundant_inequalities;
        case "kkt residual and feasibility" test_kkt_residual_small;
        prop_ipm_matches_projection;
      ] );
  ]
