(* Tests for the deconvolution extensions: Batch, Bootstrap,
   Identifiability, Richardson-Lucy, L-curve, Synchrony, analytic kernel,
   cell-cycle gene panel. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1200) ~n_cells:3000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

(* --- Batch --- *)

let batch = lazy (Deconv.Batch.prepare ~kernel:(Lazy.force kernel) ~basis ~params ())

let test_batch_matches_single () =
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.4 ~width:0.1 ~height:3.0 () in
  let g = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let via_batch =
    match
      Deconv.Batch.solve_gene_result (Lazy.force batch) ~lambda:(`Fixed 1e-4) ~measurements:g ()
    with
    | Ok est -> est
    | Error e -> Alcotest.failf "batch gene failed: %s" (Robust.Error.to_string e)
  in
  let problem =
    Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:g ~params ()
  in
  let direct = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_vec ~tol:1e-9 "batch equals direct solver" direct.Deconv.Solver.alpha
    via_batch.Deconv.Solver.alpha

let test_batch_solve_all () =
  let genes = Array.sub Biomodels.Cell_cycle_genes.panel 0 4 in
  let measurements =
    Mat.of_rows
      (Array.map
         (fun (g : Biomodels.Cell_cycle_genes.gene) ->
           Deconv.Forward.apply_fn (Lazy.force kernel) g.Biomodels.Cell_cycle_genes.profile)
         genes)
  in
  let estimates =
    Deconv.Batch.solve_all (Lazy.force batch) ~lambda:(`Fixed 1e-4) ~measurements ()
  in
  Alcotest.(check int) "one estimate per gene" 4 (Array.length estimates);
  Array.iteri
    (fun i (g : Biomodels.Cell_cycle_genes.gene) ->
      let peak = Deconv.Batch.peak_phase (Lazy.force batch) estimates.(i) in
      check_true
        (Printf.sprintf "%s peak recovered" g.Biomodels.Cell_cycle_genes.name)
        (Float.abs (peak -. g.Biomodels.Cell_cycle_genes.peak_phase) < 0.12))
    genes

let test_batch_classification () =
  let genes = Biomodels.Cell_cycle_genes.panel in
  let measurements =
    Mat.of_rows
      (Array.map
         (fun (g : Biomodels.Cell_cycle_genes.gene) ->
           Deconv.Forward.apply_fn (Lazy.force kernel) g.Biomodels.Cell_cycle_genes.profile)
         genes)
  in
  let estimates =
    Deconv.Batch.solve_all (Lazy.force batch) ~lambda:(`Fixed 1e-4) ~measurements ()
  in
  let predicted =
    Deconv.Batch.classify_by_peak (Lazy.force batch) estimates
      ~boundaries:Biomodels.Cell_cycle_genes.class_boundaries
  in
  let correct = ref 0 in
  Array.iteri
    (fun i g -> if predicted.(i) = Biomodels.Cell_cycle_genes.class_index g then incr correct)
    genes;
  check_true "most genes classified correctly (clean data)" (!correct >= 11)

(* --- Bootstrap --- *)

let test_bootstrap_bands () =
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 () in
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let noisy, sigmas =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.08) (Rng.create 1201) clean
  in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:noisy ~params ()
  in
  let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
  let bands =
    Deconv.Bootstrap.residual ~replicates:60 ~level:0.9 problem estimate ~rng:(Rng.create 1202)
  in
  (* Bands are ordered and contain the point estimate most places. *)
  let n = Array.length bands.Deconv.Bootstrap.lower in
  for j = 0 to n - 1 do
    check_true "lower <= upper"
      (bands.Deconv.Bootstrap.lower.(j) <= bands.Deconv.Bootstrap.upper.(j) +. 1e-12)
  done;
  let inside = Deconv.Bootstrap.coverage bands ~truth:estimate.Deconv.Solver.profile in
  check_true "estimate mostly inside own bands" (inside > 0.8);
  (* Width is positive on average under noise. *)
  check_true "bands have width" (Vec.mean (Deconv.Bootstrap.width bands) > 1e-4);
  (* Coverage of the truth is positive but below nominal: residual bootstrap
     captures sampling variability, not smoothing bias (see Bootstrap doc). *)
  let truth = Array.map profile (Lazy.force kernel).Cellpop.Kernel.phases in
  let truth_coverage = Deconv.Bootstrap.coverage bands ~truth in
  check_true "truth coverage positive" (truth_coverage > 0.15);
  check_true "coverage below nominal due to smoothing bias"
    (truth_coverage <= bands.Deconv.Bootstrap.level +. 0.1)

let test_bootstrap_deterministic () =
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.15 ~height:2.0 () in
  let g = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let problem = Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:g ~params () in
  let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
  let run seed =
    Deconv.Bootstrap.residual ~replicates:20 problem estimate ~rng:(Rng.create seed)
  in
  let a = run 5 and b = run 5 in
  check_vec ~tol:0.0 "same bands" a.Deconv.Bootstrap.lower b.Deconv.Bootstrap.lower

(* --- Identifiability --- *)

let test_identifiability_report () =
  let report = Deconv.Identifiability.analyze (Lazy.force kernel) basis in
  let values = report.Deconv.Identifiability.singular_values in
  Alcotest.(check int) "one value per basis function" basis.Spline.Basis.size
    (Array.length values);
  (* Descending and nonnegative. *)
  for i = 0 to Array.length values - 2 do
    check_true "descending" (values.(i) >= values.(i + 1) -. 1e-12)
  done;
  check_true "nonnegative" (values.(Array.length values - 1) >= 0.0);
  check_true "ill-posed: wide spectrum" (report.Deconv.Identifiability.condition > 1e2)

let test_effective_rank_monotone () =
  let report = Deconv.Identifiability.analyze (Lazy.force kernel) basis in
  let r1 = Deconv.Identifiability.effective_rank report ~relative_noise:1e-6 in
  let r2 = Deconv.Identifiability.effective_rank report ~relative_noise:1e-2 in
  let r3 = Deconv.Identifiability.effective_rank report ~relative_noise:0.5 in
  check_true "rank shrinks with noise" (r1 >= r2 && r2 >= r3);
  check_true "some modes always visible" (r3 >= 1);
  check_true "not everything identifiable at high noise" (r3 < basis.Spline.Basis.size)

let test_measurement_sweep () =
  let schedules =
    [| Array.init 5 (fun i -> 37.5 *. float_of_int i); Array.init 13 (fun i -> 15.0 *. float_of_int i) |]
  in
  let reports =
    Deconv.Identifiability.measurement_sweep params ~rng:(Rng.create 1203) ~n_cells:1000 ~basis
      ~schedules ~n_phi:101
  in
  let (n1, r1), (n2, r2) = (reports.(0), reports.(1)) in
  Alcotest.(check int) "schedule sizes" 5 n1;
  Alcotest.(check int) "schedule sizes" 13 n2;
  check_true "more measurements, more identifiable modes"
    (Deconv.Identifiability.effective_rank r2 ~relative_noise:1e-3
     >= Deconv.Identifiability.effective_rank r1 ~relative_noise:1e-3)

(* --- Richardson-Lucy --- *)

let test_rl_preserves_positivity_and_fits () =
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.45 ~width:0.12 ~height:4.0 () in
  let g = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let result = Deconv.Richardson_lucy.deconvolve ~iterations:300 (Lazy.force kernel) ~measurements:g () in
  Array.iter (fun v -> check_true "positive" (v > 0.0)) result.Deconv.Richardson_lucy.profile;
  (* The data misfit decreases over iterations. *)
  let h = result.Deconv.Richardson_lucy.misfit_history in
  check_true "misfit decreases"
    (h.(Array.length h - 1) < h.(0) /. 2.0);
  (* And the recovered profile resembles the truth. *)
  let truth = Array.map profile (Lazy.force kernel).Cellpop.Kernel.phases in
  check_true "shape recovered"
    (Stats.correlation truth result.Deconv.Richardson_lucy.profile > 0.9)

let test_rl_worse_than_spline_under_noise () =
  (* The headline comparison: the paper's regularized spline estimator beats
     the classical baseline on noisy data. *)
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.45 ~width:0.12 ~height:4.0 () in
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let noisy, sigmas =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) (Rng.create 1204) clean
  in
  let rl = Deconv.Richardson_lucy.deconvolve ~iterations:300 (Lazy.force kernel) ~measurements:noisy () in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:noisy ~params ()
  in
  let lambda = Deconv.Lambda.select problem ~method_:`Gcv () in
  let spline = Deconv.Solver.solve ~lambda problem in
  let truth = Array.map profile (Lazy.force kernel).Cellpop.Kernel.phases in
  let rl_err = Stats.rmse truth rl.Deconv.Richardson_lucy.profile in
  let spline_err = Stats.rmse truth spline.Deconv.Solver.profile in
  check_true "spline estimator at least as good as RL" (spline_err <= rl_err *. 1.05)

(* --- L-curve --- *)

let test_lcurve_selection () =
  let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 () in
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) profile in
  let noisy, sigmas =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) (Rng.create 1205) clean
  in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:noisy ~params ()
  in
  let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-7.0) ~hi:1.0 ~count:17 in
  let best, curve = Deconv.Lambda.lcurve problem ~lambdas in
  Alcotest.(check int) "full curve" 17 (Array.length curve);
  check_true "corner not at the extremes" (best > lambdas.(0) && best < lambdas.(16));
  (* The L-curve lambda produces a usable estimate. *)
  let est = Deconv.Solver.solve ~lambda:best problem in
  let truth = Array.map profile (Lazy.force kernel).Cellpop.Kernel.phases in
  check_true "reasonable recovery" (Stats.correlation truth est.Deconv.Solver.profile > 0.9)

(* --- Synchrony --- *)

let test_synchrony_extremes () =
  let all_at phase =
    { Cellpop.Population.time = 0.0;
      cells = Array.init 100 (fun _ -> { Cellpop.Cell.phase; phi_sst = 0.15; cycle_minutes = 150.0 }) }
  in
  check_close ~tol:1e-9 "fully synchronized" 1.0 (Cellpop.Synchrony.order_parameter (all_at 0.3));
  check_close ~tol:1e-9 "zero entropy" 0.0 (Cellpop.Synchrony.phase_entropy (all_at 0.3));
  let uniform =
    { Cellpop.Population.time = 0.0;
      cells = Array.init 1000 (fun i ->
          { Cellpop.Cell.phase = float_of_int i /. 1000.0; phi_sst = 0.15; cycle_minutes = 150.0 }) }
  in
  check_close ~tol:0.01 "uniform has R ~ 0" 0.0 (Cellpop.Synchrony.order_parameter uniform);
  check_close ~tol:0.01 "uniform entropy ~ 1" 1.0 (Cellpop.Synchrony.phase_entropy uniform)

let test_mean_phase () =
  let s =
    { Cellpop.Population.time = 0.0;
      cells = Array.init 50 (fun _ -> { Cellpop.Cell.phase = 0.25; phi_sst = 0.15; cycle_minutes = 150.0 }) }
  in
  check_close ~tol:1e-9 "mean phase" 0.25 (Cellpop.Synchrony.mean_phase s)

let test_synchrony_decays () =
  let rng = Rng.create 1206 in
  let sample_times = Vec.linspace 0.0 600.0 7 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:3000 ~times:sample_times in
  let order, entropy = Cellpop.Synchrony.over_time snapshots in
  check_true "starts synchronized" (order.(0) > 0.9);
  check_true "ends less synchronized" (order.(6) < 0.6);
  check_true "entropy rises" (entropy.(6) > entropy.(0));
  match Cellpop.Synchrony.decay_time order ~times:sample_times ~threshold:0.7 with
  | Some t -> check_true "decay time within range" (t > 0.0 && t < 600.0)
  | None -> Alcotest.fail "synchrony should decay below 0.7"

(* --- Analytic kernel --- *)

let test_analytic_kernel_matches_mc () =
  let short_times = [| 0.0; 25.0; 50.0; 75.0 |] in
  let analytic = Cellpop.Kernel_analytic.estimate params ~times:short_times ~n_phi:101 in
  check_true "normalized" (Cellpop.Kernel.check_normalization analytic < 1e-10);
  let mc =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1207) ~n_cells:20_000
      ~times:short_times ~n_phi:101
  in
  for m = 0 to 3 do
    let ra = Cellpop.Kernel.row analytic m and rm = Cellpop.Kernel.row mc m in
    let l1 = ref 0.0 in
    Array.iteri
      (fun j a -> l1 := !l1 +. (Float.abs (a -. rm.(j)) *. analytic.Cellpop.Kernel.bin_width))
      ra;
    check_true (Printf.sprintf "MC close to analytic at t=%g" short_times.(m)) (!l1 < 0.08)
  done

let test_analytic_kernel_validity_bound () =
  let bound = Cellpop.Kernel_analytic.valid_until params in
  check_true "bound is positive and below one cycle"
    (bound > 30.0 && bound < params.Cellpop.Params.mean_cycle_minutes)

let test_mc_converges_to_analytic () =
  (* Kernel error shrinks as the Monte-Carlo cell count grows. *)
  let short_times = [| 40.0 |] in
  let analytic = Cellpop.Kernel_analytic.estimate params ~times:short_times ~n_phi:101 in
  let error n_cells seed =
    let mc =
      Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create seed) ~n_cells
        ~times:short_times ~n_phi:101
    in
    let ra = Cellpop.Kernel.row analytic 0 and rm = Cellpop.Kernel.row mc 0 in
    let acc = ref 0.0 in
    Array.iteri (fun j a -> acc := !acc +. Float.abs (a -. rm.(j))) ra;
    !acc
  in
  let small = error 300 11 and large = error 30_000 12 in
  check_true "error shrinks with cells" (large < small /. 2.0)

(* --- Cell-cycle gene panel --- *)

let test_panel_structure () =
  let genes = Biomodels.Cell_cycle_genes.panel in
  Alcotest.(check int) "twelve genes" 12 (Array.length genes);
  (* Three per class. *)
  let counts = Array.make 4 0 in
  Array.iter
    (fun g ->
      let i = Biomodels.Cell_cycle_genes.class_index g in
      counts.(i) <- counts.(i) + 1)
    genes;
  Array.iter (fun c -> Alcotest.(check int) "three per class" 3 c) counts;
  (* Profiles peak where declared, and peaks respect the class boundaries. *)
  let grid = Vec.linspace 0.0 1.0 500 in
  Array.iter
    (fun (g : Biomodels.Cell_cycle_genes.gene) ->
      let values = Array.map g.Biomodels.Cell_cycle_genes.profile grid in
      let peak = grid.(Vec.argmax values) in
      check_close ~tol:0.02 "declared peak" g.Biomodels.Cell_cycle_genes.peak_phase peak;
      check_true "nonnegative" (Vec.min values >= 0.0))
    genes

let test_panel_boundaries_separate_classes () =
  let b = Biomodels.Cell_cycle_genes.class_boundaries in
  Array.iter
    (fun (g : Biomodels.Cell_cycle_genes.gene) ->
      let expected = Biomodels.Cell_cycle_genes.class_index g in
      let peak = g.Biomodels.Cell_cycle_genes.peak_phase in
      let rec window i = if i >= Array.length b || peak < b.(i) then i else window (i + 1) in
      Alcotest.(check int) ("window of " ^ g.Biomodels.Cell_cycle_genes.name) expected (window 0))
    Biomodels.Cell_cycle_genes.panel

let tests =
  [
    ( "batch",
      [
        case "batch equals direct solver" test_batch_matches_single;
        case "solve_all recovers peaks" test_batch_solve_all;
        case "classification on clean data" test_batch_classification;
      ] );
    ( "bootstrap",
      [
        case "bands ordered and cover" test_bootstrap_bands;
        case "deterministic" test_bootstrap_deterministic;
      ] );
    ( "identifiability",
      [
        case "report structure" test_identifiability_report;
        case "effective rank monotone in noise" test_effective_rank_monotone;
        case "measurement sweep" test_measurement_sweep;
      ] );
    ( "richardson-lucy",
      [
        case "positivity and fit" test_rl_preserves_positivity_and_fits;
        case "spline method matches or beats RL" test_rl_worse_than_spline_under_noise;
      ] );
    ( "lcurve",
      [ case "corner selection" test_lcurve_selection ] );
    ( "synchrony",
      [
        case "extreme populations" test_synchrony_extremes;
        case "mean phase" test_mean_phase;
        case "batch culture desynchronizes" test_synchrony_decays;
      ] );
    ( "kernel-analytic",
      [
        case "matches monte carlo" test_analytic_kernel_matches_mc;
        case "validity bound" test_analytic_kernel_validity_bound;
        case "mc converges to analytic" test_mc_converges_to_analytic;
      ] );
    ( "cell-cycle-genes",
      [
        case "panel structure" test_panel_structure;
        case "boundaries separate classes" test_panel_boundaries_separate_classes;
      ] );
  ]
