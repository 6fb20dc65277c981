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
      vec_approx_equal ~tol:1e-5 expected solution.Optimize.Qp.x)

(* The exact counterpart of the property above: with H = 2I the active
   set is the set of negative entries, so the dual active-set method
   returns max(c, 0) to rounding, not to a tolerance. *)
let test_projection_exact () =
  for s = 1 to 300 do
    let rng = Rng.create s in
    let n = 1 + Rng.int rng 6 in
    let c = Array.init n (fun _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
    let solution =
      Optimize.Qp.solve
        {
          h = Mat.scale 2.0 (Mat.identity n);
          g = Vec.scale (-2.0) c;
          ineq = Some (Mat.identity n, Vec.zeros n);
        }
    in
    Array.iteri
      (fun i ci ->
        check_close ~tol:1e-12 (Printf.sprintf "seed %d: x.(%d)" s i) (Float.max ci 0.0)
          solution.Optimize.Qp.x.(i))
      c
  done

(* A random convex QP whose rows hold at a known point (about half of
   them with equality there), so it is feasible by construction. *)
let random_feasible_qp seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 8 and m = Rng.int rng 31 in
  let base = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let h = Mat.add (Mat.gram base) (Mat.scale 0.1 (Mat.identity n)) in
  let g = Array.init n (fun _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
  let a = Mat.init m n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let feasible = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let b =
    Array.map
      (fun ax -> if Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 then ax else ax -. Rng.uniform rng ~lo:0.0 ~hi:1.0)
      (Mat.mv a feasible)
  in
  ({ Optimize.Qp.h; g; ineq = Some (a, b) }, a, b, feasible)

let prop_random_feasible_qp_exact =
  qcheck ~count:100 "random feasible QP solved exactly"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let problem, a, b, feasible = random_feasible_qp seed in
      let solution = Optimize.Qp.solve problem in
      let x = solution.Optimize.Qp.x in
      let ax = Mat.mv a x in
      let scale = Float.max 1.0 (Float.max (Vec.norm_inf b) (Vec.norm_inf ax)) in
      let lowest = ref Float.infinity in
      Array.iteri (fun i v -> lowest := Float.min !lowest (v -. b.(i))) ax;
      let objective x =
        (0.5 *. Vec.dot x (Mat.mv problem.Optimize.Qp.h x)) +. Vec.dot problem.Optimize.Qp.g x
      in
      solution.Optimize.Qp.status = Optimize.Qp.Converged
      && !lowest >= -1e-10 *. scale
      && solution.Optimize.Qp.kkt_residual <= 1e-9
      && List.length solution.Optimize.Qp.active <= Array.length x
      && objective x <= objective feasible +. (1e-9 *. Float.max 1.0 (Float.abs (objective x))))

(* Degeneracy: twenty rows (cos θ, sin θ, 0) ≥ 0 for θ in [0, π/2] all
   hold with equality at the optimum x = (0, 0, 1) of ½‖x − c‖², more
   rows than the three unknowns. The active set stays within n and the
   rows that are not in it hold to rounding. *)
let test_degenerate_zero_face () =
  let rows =
    Array.init 20 (fun k ->
        let theta = Float.pi /. 2.0 *. float_of_int k /. 19.0 in
        [| Float.cos theta; Float.sin theta; 0.0 |])
  in
  let a = Mat.of_rows rows in
  let c = [| -1.0; -2.0; 1.0 |] in
  let solution =
    Optimize.Qp.solve { h = Mat.identity 3; g = Vec.neg c; ineq = Some (a, Vec.zeros 20) }
  in
  check_true "converged" (solution.Optimize.Qp.status = Optimize.Qp.Converged);
  check_true "active set within n" (List.length solution.Optimize.Qp.active <= 3);
  check_vec ~tol:1e-12 "optimum on the zero face" [| 0.0; 0.0; 1.0 |] solution.Optimize.Qp.x;
  check_true "every row at zero to rounding" (Vec.min (Mat.mv a solution.Optimize.Qp.x) >= -1e-15);
  check_true "exact multipliers" (solution.Optimize.Qp.kkt_residual <= 1e-12)

(* A violated row that depends on the active set cannot be added by a
   primal step. When no active multiplier can be dropped for it either,
   as for vᵀx ≥ 1 and −vᵀx ≥ 0, the rows admit no feasible point: the
   solve stops as Stalled after the scan, the add and the pass that finds
   the dependence. In J coordinates the second row keeps a rounding-level
   component outside the first one's span; dividing by it would throw x
   to ~1e16 and report both rows active. *)
let test_dependent_row_never_divided () =
  let h = Mat.of_rows [| [| 4.0; 1.0; 0.5 |]; [| 1.0; 3.0; 0.2 |]; [| 0.5; 0.2; 2.0 |] |] in
  let v = [| 0.3; -0.7; 0.5 |] in
  let a = Mat.of_rows [| v; Vec.neg v |] in
  let solution =
    Optimize.Qp.solve { h; g = Vec.zeros 3; ineq = Some (a, [| 1.0; 0.0 |]) }
  in
  check_true "stalled" (solution.Optimize.Qp.status = Optimize.Qp.Stalled);
  Alcotest.(check int) "scan, add, dependence found" 3 solution.Optimize.Qp.iterations;
  Alcotest.(check (list int)) "only the first row active" [ 0 ] solution.Optimize.Qp.active;
  check_close ~tol:1e-12 "the first row holds" 1.0 (Vec.dot v solution.Optimize.Qp.x)

(* The paper's ftsZ profile at λ = 1e-7 on a 201-phase kernel: the
   estimate touches zero in the swarmer-stage zero region. *)
let test_ftsz_positivity_exact () =
  let params = Cellpop.Params.paper_2011 in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1000) ~n_cells:4000
      ~times:Dataio.Datasets.lv_measurement_times ~n_phi:201
  in
  let problem =
    Deconv.Problem.create ~kernel
      ~basis:(Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12)
      ~measurements:(Deconv.Forward.apply_fn kernel Biomodels.Ftsz.profile)
      ~params ()
  in
  let lambda = 1e-7 in
  let a = Deconv.Problem.design problem in
  let w = Deconv.Problem.weights problem in
  let omega = Deconv.Problem.penalty problem in
  let h = Mat.scale 2.0 (Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:omega ~lambda) in
  let g = Vec.scale (-2.0) (Mat.tmv a (Vec.mul w problem.Deconv.Problem.measurements)) in
  let z = problem.Deconv.Problem.null_space in
  let psi =
    match problem.Deconv.Problem.positivity with
    | Some p -> p
    | None -> Alcotest.fail "positivity block missing"
  in
  let solution =
    Optimize.Qp.solve
      {
        h = Mat.matmul (Mat.transpose z) (Mat.matmul h z);
        g = Mat.tmv z g;
        ineq = Some (psi, Vec.zeros psi.Mat.rows);
      }
  in
  let alpha = Mat.mv z solution.Optimize.Qp.x in
  let nodes = Mat.mv psi solution.Optimize.Qp.x in
  Alcotest.(check int) "203 positivity nodes" 203 (Array.length nodes);
  check_true "converged" (solution.Optimize.Qp.status = Optimize.Qp.Converged);
  check_true "active set within n" (List.length solution.Optimize.Qp.active <= z.Mat.cols);
  check_true
    (Printf.sprintf "nodes nonnegative to rounding (min %g)" (Vec.min nodes))
    (Vec.min nodes >= -1e-12 *. (1.0 +. Vec.norm_inf alpha));
  check_true "kkt residual" (solution.Optimize.Qp.kkt_residual <= 1e-9)

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
        case "nonnegative projection is exact" test_projection_exact;
        prop_random_feasible_qp_exact;
        case "degenerate zero face" test_degenerate_zero_face;
        case "dependent row never divided" test_dependent_row_never_divided;
        case "ftsz positivity exact" test_ftsz_positivity_exact;
      ] );
  ]
