open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 2700) ~n_cells:2000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()

let make_problem_estimate ~sigma_claim ~sigma_true ~seed =
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) pulse in
  let noisy, _ =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_absolute sigma_true) (Rng.create seed) clean
  in
  let sigmas = Array.make 13 sigma_claim in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:noisy ~params ()
  in
  let lambda = Deconv.Lambda.select problem ~method_:`Gcv () in
  (problem, Deconv.Solver.solve ~lambda problem)

let test_well_specified_model_adequate () =
  (* Correctly stated noise level: the fit should not be rejected. *)
  let problem, estimate = make_problem_estimate ~sigma_claim:0.15 ~sigma_true:0.15 ~seed:1 in
  let report = Deconv.Diagnostics.analyze problem estimate in
  check_true "p-value not tiny" (report.Deconv.Diagnostics.p_value > 0.01);
  check_true "adequate" (Deconv.Diagnostics.adequate report);
  Alcotest.(check int) "one residual per measurement" 13
    (Array.length report.Deconv.Diagnostics.standardized_residuals)

let test_understated_noise_rejected () =
  (* Claiming sigma 10x smaller than reality: chi2 blows up, p ~ 0. *)
  let problem, estimate = make_problem_estimate ~sigma_claim:0.015 ~sigma_true:0.15 ~seed:2 in
  let report = Deconv.Diagnostics.analyze problem estimate in
  ignore report.Deconv.Diagnostics.lag1_autocorrelation;
  check_true "lack of fit detected"
    (report.Deconv.Diagnostics.p_value < 0.05 || not (Deconv.Diagnostics.adequate report))

let test_misspecified_kernel_flagged () =
  (* Data from a much slower culture, analyzed with the 150-min kernel and a
     small claimed noise: residuals show structure. *)
  let slow = { params with Cellpop.Params.mean_cycle_minutes = 210.0 } in
  let snapshots = Cellpop.Population.simulate slow ~rng:(Rng.create 3) ~n0:4000 ~times in
  let clean = Array.map (Cellpop.Population.mean_signal slow (fun ~phi -> pulse phi)) snapshots in
  let sigmas = Array.make 13 0.02 in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:clean ~params ()
  in
  let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
  let report = Deconv.Diagnostics.analyze problem estimate in
  check_true "misspecification rejected" (not (Deconv.Diagnostics.adequate report))

let test_chi2_scale () =
  let problem, estimate = make_problem_estimate ~sigma_claim:0.15 ~sigma_true:0.15 ~seed:4 in
  let report = Deconv.Diagnostics.analyze problem estimate in
  (* chi2 should be on the order of the residual dof. *)
  check_true "chi2 near dof"
    (report.Deconv.Diagnostics.chi2 < 4.0 *. report.Deconv.Diagnostics.dof);
  check_true "dof below measurement count" (report.Deconv.Diagnostics.dof < 13.0);
  check_true "report prints" (String.length (Deconv.Diagnostics.to_string report) > 10)

(* 20 coefficients against 13 measurements at lambda = 0: the smoother's
   normal matrix is not SPD, so its edf is undefined. The cascade still
   solves (with a preemptive ridge); the adequacy test must report itself
   unavailable instead of raising or rejecting. *)
let test_singular_system_adequacy_unavailable () =
  let wide = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:20 in
  let k = Lazy.force kernel in
  let clean = Deconv.Forward.apply_fn k pulse in
  let noisy, _ =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_absolute 0.15) (Rng.create 5) clean
  in
  let problem =
    Deconv.Problem.create ~sigmas:(Array.make 13 0.15) ~kernel:k ~basis:wide ~measurements:noisy
      ~params ()
  in
  let estimate =
    match Deconv.Solver.solve_robust ~lambda:0.0 problem with
    | Ok (est, _) -> est
    | Error e -> Alcotest.failf "cascade failed: %s" (Robust.Error.to_string e)
  in
  let report = Deconv.Diagnostics.analyze problem estimate in
  check_true "chi2 finite" (Float.is_finite report.Deconv.Diagnostics.chi2);
  check_true "dof NaN" (Float.is_nan report.Deconv.Diagnostics.dof);
  check_true "p-value NaN" (Float.is_nan report.Deconv.Diagnostics.p_value);
  check_true "not adequate" (not (Deconv.Diagnostics.adequate report));
  check_true "runs test still computed" (Float.is_finite report.Deconv.Diagnostics.runs_z);
  check_true "report prints" (String.length (Deconv.Diagnostics.to_string report) > 10)

let test_kernel_save_load_roundtrip () =
  let k = Lazy.force kernel in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "kernel_roundtrip.kernel" in
  Cellpop.Kernel.save k ~path;
  let k2 = Cellpop.Kernel.load ~path in
  check_vec ~tol:0.0 "phases preserved" k.Cellpop.Kernel.phases k2.Cellpop.Kernel.phases;
  check_vec ~tol:0.0 "times preserved" k.Cellpop.Kernel.times k2.Cellpop.Kernel.times;
  check_close ~tol:0.0 "bin width preserved" k.Cellpop.Kernel.bin_width k2.Cellpop.Kernel.bin_width;
  check_true "q preserved" (mat_approx_equal ~tol:0.0 k.Cellpop.Kernel.q k2.Cellpop.Kernel.q);
  check_true "q_tilde preserved"
    (mat_approx_equal ~tol:0.0 k.Cellpop.Kernel.q_tilde k2.Cellpop.Kernel.q_tilde);
  Sys.remove path

let test_kernel_load_rejects_garbage () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "kernel_garbage.kernel" in
  let oc = open_out path in
  output_string oc "not,a,kernel\n1,2,3\n";
  close_out oc;
  (match Cellpop.Kernel.load ~path with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Failure _ -> ());
  Sys.remove path

let tests =
  [
    ( "diagnostics",
      [
        case "well-specified model is adequate" test_well_specified_model_adequate;
        case "understated noise rejected" test_understated_noise_rejected;
        case "misspecified kernel flagged" test_misspecified_kernel_flagged;
        case "chi2 scale" test_chi2_scale;
        case "singular system: adequacy unavailable" test_singular_system_adequacy_unavailable;
      ] );
    ( "kernel-io",
      [
        case "save/load roundtrip" test_kernel_save_load_roundtrip;
        case "load rejects garbage" test_kernel_load_rejects_garbage;
      ] );
  ]
