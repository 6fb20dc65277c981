(* Solver + Lambda + Problem tests: the estimator itself. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 700) ~n_cells:3000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

let make_problem ?(sigmas : Vec.t option) ?(use_positivity = true) ?(use_conservation = true)
    ?(use_rate_continuity = true) measurements =
  Deconv.Problem.create ~use_positivity ~use_conservation ~use_rate_continuity ?sigmas
    ~kernel:(Lazy.force kernel) ~basis ~measurements ~params ()

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()

let clean_data = lazy (Deconv.Forward.apply_fn (Lazy.force kernel) pulse)

let test_problem_validation () =
  let problem = make_problem (Lazy.force clean_data) in
  Alcotest.(check int) "measurement count" 13 (Deconv.Problem.num_measurements problem);
  let w = Deconv.Problem.weights problem in
  check_vec "unit weights by default" (Vec.ones 13) w;
  let problem2 = make_problem ~sigmas:(Vec.make 13 0.5) (Lazy.force clean_data) in
  check_close ~tol:1e-12 "weights are 1/sigma^2" 4.0 (Deconv.Problem.weights problem2).(0)

let test_unconstrained_fits_data () =
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve_unconstrained ~lambda:1e-6 problem in
  check_true "data misfit small" (est.Deconv.Solver.data_misfit < 1e-2);
  check_true "fitted matches data" (Stats.rmse (Lazy.force clean_data) est.Deconv.Solver.fitted < 0.03)

let test_constrained_recovery_inverse_crime () =
  (* Data generated with the same kernel: recovery should be excellent. *)
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve ~lambda:1e-5 problem in
  let truth = Array.map pulse (Lazy.force kernel).Cellpop.Kernel.phases in
  let c = Deconv.Metrics.compare ~truth ~estimate:est.Deconv.Solver.profile in
  check_true "high correlation" (c.Deconv.Metrics.correlation > 0.99);
  check_true "low nrmse" (c.Deconv.Metrics.nrmse < 0.06)

let test_positivity_enforced () =
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve ~lambda:1e-5 problem in
  Array.iter (fun v -> check_true "profile nonnegative" (v >= -1e-6)) est.Deconv.Solver.profile;
  (* And also at the interval endpoints, which sit outside the grid. *)
  let endpoints = Deconv.Solver.profile_on problem est [| 0.0; 1.0 |] in
  Array.iter (fun v -> check_true "endpoints nonnegative" (v >= -1e-6)) endpoints

let test_unconstrained_goes_negative () =
  (* Without positivity, small dips below zero appear near the profile's
     flat foot — this is exactly why the paper imposes the constraint. *)
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve_unconstrained ~lambda:1e-5 problem in
  check_true "unconstrained dips below zero" (Vec.min est.Deconv.Solver.profile < -1e-4)

let test_equality_constraints_satisfied () =
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_close ~tol:1e-6 "conservation satisfied" 0.0
    (Deconv.Constraints.residual_conservation params basis est.Deconv.Solver.alpha);
  check_close ~tol:1e-6 "rate continuity satisfied" 0.0
    (Deconv.Constraints.residual_rate_continuity params basis est.Deconv.Solver.alpha)

(* The equality rows hold by construction (α = Zβ), so whatever else is
   switched on, each enforced row is zero to rounding, not to the QP
   tolerance. *)
let test_equality_rows_by_construction () =
  let bools = [ false; true ] in
  List.iter
    (fun use_positivity ->
      List.iter
        (fun use_conservation ->
          List.iter
            (fun use_rate_continuity ->
              let problem =
                make_problem ~use_positivity ~use_conservation ~use_rate_continuity
                  (Lazy.force clean_data)
              in
              let alpha = (Deconv.Solver.solve ~lambda:1e-4 problem).Deconv.Solver.alpha in
              let bound = 1e-12 *. (1.0 +. Vec.norm_inf alpha) in
              let check on name residual =
                if on then
                  check_true
                    (Printf.sprintf "%s |%.3g| <= %.3g (positivity %b, conservation %b, rate %b)"
                       name residual bound use_positivity use_conservation use_rate_continuity)
                    (Float.abs residual <= bound)
              in
              check use_conservation "conservation"
                (Deconv.Constraints.residual_conservation params basis alpha);
              check use_rate_continuity "rate continuity"
                (Deconv.Constraints.residual_rate_continuity params basis alpha))
            bools)
        bools)
    bools

(* Two equality rows on a one-function basis are necessarily dependent:
   no null-space basis exists, and create says so with a typed error
   rather than a bare Linalg.Singular. *)
let test_dependent_equality_rows_rejected () =
  let basis = { basis with Spline.Basis.size = 1 } in
  match
    Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:(Vec.zeros 13)
      ~params ()
  with
  | (_ : Deconv.Problem.t) -> Alcotest.fail "expected Invalid_input on constraints"
  | exception Robust.Error.Error (Robust.Error.Invalid_input { field; _ }) ->
    Alcotest.(check string) "field" "constraints" field

let test_constraints_can_be_disabled () =
  let problem =
    make_problem ~use_conservation:false ~use_rate_continuity:false ~use_positivity:false
      (Lazy.force clean_data)
  in
  let est = Deconv.Solver.solve ~lambda:1e-4 problem in
  (* Without the constraint the residual is generally nonzero. *)
  check_true "conservation not enforced"
    (Float.abs (Deconv.Constraints.residual_conservation params basis est.Deconv.Solver.alpha)
     > 1e-8)

let test_cost_decomposition () =
  let problem = make_problem (Lazy.force clean_data) in
  let est = Deconv.Solver.solve ~lambda:1e-3 problem in
  check_close ~tol:1e-9 "cost = misfit + lambda*roughness"
    (est.Deconv.Solver.data_misfit +. (1e-3 *. est.Deconv.Solver.roughness))
    est.Deconv.Solver.cost

let test_lambda_tradeoff () =
  (* Larger lambda: smoother (lower roughness), worse fit (higher misfit). *)
  let problem = make_problem (Lazy.force clean_data) in
  let small = Deconv.Solver.solve ~lambda:1e-6 problem in
  let large = Deconv.Solver.solve ~lambda:1.0 problem in
  check_true "roughness decreases" (large.Deconv.Solver.roughness < small.Deconv.Solver.roughness);
  check_true "misfit increases" (large.Deconv.Solver.data_misfit > small.Deconv.Solver.data_misfit)

let test_naive_baseline_is_worse_under_noise () =
  (* With noise, the unregularized inversion oscillates wildly; the paper's
     regularized constrained estimate is much closer to the truth. *)
  let rng = Rng.create 701 in
  let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) rng (Lazy.force clean_data) in
  let problem = make_problem ~sigmas noisy in
  let naive = Deconv.Solver.naive problem in
  let regularized = Deconv.Solver.solve ~lambda:1e-3 problem in
  let truth = Array.map pulse (Lazy.force kernel).Cellpop.Kernel.phases in
  let naive_err = Stats.rmse truth naive.Deconv.Solver.profile in
  let reg_err = Stats.rmse truth regularized.Deconv.Solver.profile in
  check_true "naive inversion blows up" (naive_err > 2.0 *. reg_err)

let test_weighted_fit_respects_sigmas () =
  (* Corrupt one point with huge reported sigma: the fit should ignore it. *)
  let data = Array.copy (Lazy.force clean_data) in
  let sigmas = Vec.make 13 0.05 in
  data.(6) <- data.(6) +. 10.0;
  sigmas.(6) <- 1e3;
  let problem = make_problem ~sigmas data in
  let est = Deconv.Solver.solve ~lambda:1e-4 problem in
  let truth = Array.map pulse (Lazy.force kernel).Cellpop.Kernel.phases in
  let c = Deconv.Metrics.compare ~truth ~estimate:est.Deconv.Solver.profile in
  check_true "outlier downweighted" (c.Deconv.Metrics.correlation > 0.98)

(* --- Lambda selection --- *)

let test_gcv_selects_reasonable_lambda () =
  let rng = Rng.create 702 in
  let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) rng (Lazy.force clean_data) in
  let problem = make_problem ~sigmas noisy in
  let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-7.0) ~hi:2.0 ~count:19 in
  let best, curve = Deconv.Lambda.gcv problem ~lambdas in
  Alcotest.(check int) "full curve returned" 19 (Array.length curve);
  check_true "best not at extremes" (best > 1e-7 && best < 1e2);
  (* The GCV-selected lambda recovers well. *)
  let est = Deconv.Solver.solve ~lambda:best problem in
  let truth = Array.map pulse (Lazy.force kernel).Cellpop.Kernel.phases in
  check_true "good recovery at chosen lambda"
    ((Deconv.Metrics.compare ~truth ~estimate:est.Deconv.Solver.profile).Deconv.Metrics.correlation
     > 0.95)

let test_gcv_curve_is_finite () =
  let problem = make_problem (Lazy.force clean_data) in
  let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-6.0) ~hi:1.0 ~count:8 in
  let _, curve = Deconv.Lambda.gcv problem ~lambdas in
  Array.iter
    (fun (p : Deconv.Lambda.curve_point) ->
      check_true "scores finite" (Float.is_finite p.Deconv.Lambda.score))
    curve

let test_kfold_selection_runs () =
  let rng = Rng.create 703 in
  let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) rng (Lazy.force clean_data) in
  let problem = make_problem ~sigmas noisy in
  let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-5.0) ~hi:0.0 ~count:6 in
  let best, curve = Deconv.Lambda.kfold problem ~rng:(Rng.create 1) ~k:4 ~lambdas in
  Alcotest.(check int) "curve points" 6 (Array.length curve);
  check_true "kfold lambda in grid" (Array.exists (fun l -> l = best) lambdas)

let test_select_fixed () =
  let problem = make_problem (Lazy.force clean_data) in
  check_close "fixed passthrough" 0.123
    (Deconv.Lambda.select problem ~method_:(`Fixed 0.123) ())

let test_solver_deterministic () =
  let problem = make_problem (Lazy.force clean_data) in
  let a = Deconv.Solver.solve ~lambda:1e-4 problem in
  let b = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_vec ~tol:0.0 "identical estimates" a.Deconv.Solver.alpha b.Deconv.Solver.alpha

(* Problem.with_data is the one way to re-point a problem at new data:
   it makes create's typed length checks and shares every data-independent
   field. *)
let raised f =
  match f () with
  | (_ : Deconv.Problem.t) -> Alcotest.fail "expected Robust.Error.Invalid_input"
  | exception Robust.Error.Error e -> e

let check_invalid_field field e =
  match e with
  | Robust.Error.Invalid_input { field = f; _ } -> Alcotest.(check string) "field" field f
  | e -> Alcotest.failf "expected Invalid_input on %s, got %s" field (Robust.Error.to_string e)

let test_with_data_typed_errors () =
  let problem = make_problem (Lazy.force clean_data) in
  let n = Deconv.Problem.num_measurements problem in
  let short = Vec.zeros (n - 1) in
  let from_create = raised (fun () -> make_problem short) in
  let from_with_data = raised (fun () -> Deconv.Problem.with_data problem short) in
  check_invalid_field "measurements" from_with_data;
  check_true "same measurements error as create" (Robust.Error.equal from_create from_with_data);
  let sigmas = Vec.ones (n + 1) in
  let from_create = raised (fun () -> make_problem ~sigmas (Vec.zeros n)) in
  let from_with_data = raised (fun () -> Deconv.Problem.with_data ~sigmas problem (Vec.zeros n)) in
  check_invalid_field "sigmas" from_with_data;
  check_true "same sigmas error as create" (Robust.Error.equal from_create from_with_data)

let test_with_data_shares_blocks () =
  let problem = make_problem ~sigmas:(Vec.make 13 0.5) (Lazy.force clean_data) in
  let g = Vec.make 13 1.0 in
  let p = Deconv.Problem.with_data problem g in
  check_true "measurements replaced" (p.Deconv.Problem.measurements == g);
  check_true "sigmas kept by default" (p.Deconv.Problem.sigmas == problem.Deconv.Problem.sigmas);
  check_true "design shared" (Deconv.Problem.design p == Deconv.Problem.design problem);
  check_true "penalty shared" (Deconv.Problem.penalty p == Deconv.Problem.penalty problem);
  check_true "equality block shared" (p.Deconv.Problem.equality == problem.Deconv.Problem.equality);
  check_true "null space shared"
    (p.Deconv.Problem.null_space == problem.Deconv.Problem.null_space);
  check_true "positivity block shared"
    (p.Deconv.Problem.positivity == problem.Deconv.Problem.positivity);
  let sigmas = Vec.make 13 2.0 in
  check_true "sigmas replaced when given"
    ((Deconv.Problem.with_data ~sigmas problem g).Deconv.Problem.sigmas == sigmas)

let test_batch_bad_sigma_row_isolated () =
  (* Genes re-point one prepared template; a gene whose sigma row is
     unusable fails alone, with the typed error validation gives it. *)
  let k = Lazy.force kernel in
  let batch = Deconv.Batch.prepare ~kernel:k ~basis ~params () in
  let genes = 4 in
  let measurements =
    Mat.of_rows
      (Array.init genes (fun g ->
           Deconv.Forward.apply_fn k
             (Biomodels.Gene_profile.gaussian_pulse
                ~center:(0.2 +. (0.2 *. float_of_int g))
                ~width:0.1 ~height:3.0 ())))
  in
  let sigmas = Mat.make genes 13 0.1 in
  Mat.set sigmas 2 5 0.0;
  let outcome =
    Deconv.Batch.solve_all_result batch ~sigmas ~lambda:(`Fixed 1e-4) ~measurements ()
  in
  Array.iteri
    (fun g -> function
      | Ok (_ : Deconv.Solver.estimate) ->
        check_true (Printf.sprintf "gene %d solves" g) (g <> 2)
      | Error e ->
        check_true (Printf.sprintf "only gene 2 fails, not gene %d" g) (g = 2);
        check_invalid_field "sigmas" e)
    outcome.Deconv.Batch.Outcome.outcomes

let tests =
  [
    ( "solver",
      [
        case "problem validation" test_problem_validation;
        case "unconstrained fits data" test_unconstrained_fits_data;
        case "inverse-crime recovery" test_constrained_recovery_inverse_crime;
        case "positivity enforced" test_positivity_enforced;
        case "unconstrained goes negative" test_unconstrained_goes_negative;
        case "equality constraints satisfied" test_equality_constraints_satisfied;
        case "equality rows hold by construction" test_equality_rows_by_construction;
        case "dependent equality rows rejected" test_dependent_equality_rows_rejected;
        case "constraints can be disabled" test_constraints_can_be_disabled;
        case "cost decomposition" test_cost_decomposition;
        case "lambda tradeoff" test_lambda_tradeoff;
        case "naive baseline worse under noise" test_naive_baseline_is_worse_under_noise;
        case "weighted fit respects sigmas" test_weighted_fit_respects_sigmas;
        case "solver deterministic" test_solver_deterministic;
        case "with_data typed errors" test_with_data_typed_errors;
        case "with_data shares the blocks" test_with_data_shares_blocks;
        case "batch bad sigma row isolated" test_batch_bad_sigma_row_isolated;
      ] );
    ( "lambda",
      [
        case "gcv selects reasonable lambda" test_gcv_selects_reasonable_lambda;
        case "gcv curve finite" test_gcv_curve_is_finite;
        case "kfold selection" test_kfold_selection_runs;
        case "fixed passthrough" test_select_fixed;
      ] );
  ]
