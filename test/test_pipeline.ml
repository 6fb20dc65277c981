(* End-to-end pipeline tests: generate -> noise -> deconvolve -> compare. *)

open Numerics
open Testutil

let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let small_config =
  {
    (Deconv.Pipeline.default_config ~times) with
    Deconv.Pipeline.n_cells_kernel = 1500;
    n_cells_data = 1500;
    n_phi = 101;
    seed = 11;
  }

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()

let test_noiseless_recovery () =
  let run = Deconv.Pipeline.run small_config ~profile:pulse in
  check_true "good noiseless recovery"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.97);
  check_true "nrmse small" (run.Deconv.Pipeline.recovery.Deconv.Metrics.nrmse < 0.1)

let test_noisy_recovery () =
  let config = { small_config with Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10 } in
  let run = Deconv.Pipeline.run config ~profile:pulse in
  check_true "recovery survives 10% noise"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.9)

let test_deconvolved_beats_population () =
  (* The headline claim: the deconvolved profile is closer to the truth than
     the raw population data read as a time course. *)
  let run = Deconv.Pipeline.run small_config ~profile:pulse in
  let truth_at_times =
    Array.map (fun t -> pulse (t /. 150.0)) (Array.sub times 0 11)
  in
  let population = Array.sub run.Deconv.Pipeline.noisy 0 11 in
  let deconvolved_at_times =
    Array.map
      (fun t ->
        Interp.linear_clamped ~x:run.Deconv.Pipeline.phases
          ~y:run.Deconv.Pipeline.estimate.Deconv.Solver.profile (t /. 150.0))
      (Array.sub times 0 11)
  in
  let pop_err = Stats.rmse truth_at_times population in
  let dec_err = Stats.rmse truth_at_times deconvolved_at_times in
  check_true "deconvolution reduces error vs population" (dec_err < pop_err /. 1.5)

let test_same_kernel_mode_near_perfect () =
  let config =
    { small_config with Deconv.Pipeline.forward_mode = Deconv.Pipeline.Same_kernel;
      selection = `Fixed 1e-5 }
  in
  let run = Deconv.Pipeline.run config ~profile:pulse in
  check_true "inverse crime near-perfect"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.995)

let test_independent_kernel_mode () =
  let config =
    { small_config with Deconv.Pipeline.forward_mode = Deconv.Pipeline.Independent_kernel }
  in
  let run = Deconv.Pipeline.run config ~profile:pulse in
  check_true "independent kernel still recovers"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.95)

let test_pipeline_deterministic () =
  let a = Deconv.Pipeline.run small_config ~profile:pulse in
  let b = Deconv.Pipeline.run small_config ~profile:pulse in
  check_vec ~tol:0.0 "same estimate" a.Deconv.Pipeline.estimate.Deconv.Solver.alpha
    b.Deconv.Pipeline.estimate.Deconv.Solver.alpha;
  check_close "same lambda" a.Deconv.Pipeline.lambda b.Deconv.Pipeline.lambda

let test_seed_changes_data () =
  let a = Deconv.Pipeline.run small_config ~profile:pulse in
  let b = Deconv.Pipeline.run { small_config with Deconv.Pipeline.seed = 12 } ~profile:pulse in
  check_true "different seeds different data"
    (not (vec_approx_equal ~tol:1e-12 a.Deconv.Pipeline.clean b.Deconv.Pipeline.clean))

let test_truth_and_phases_consistent () =
  let run = Deconv.Pipeline.run small_config ~profile:pulse in
  Alcotest.(check int) "truth on grid" (Array.length run.Deconv.Pipeline.phases)
    (Array.length run.Deconv.Pipeline.truth);
  check_close ~tol:1e-12 "truth values" (pulse run.Deconv.Pipeline.phases.(50))
    run.Deconv.Pipeline.truth.(50)

let test_volume_model_ablation_runs () =
  (* Data from the smooth 2011 model, inversion with the linear 2009 model:
     the mismatch should not break anything, just degrade accuracy. *)
  let config =
    {
      small_config with
      Deconv.Pipeline.inversion_params = Some Cellpop.Params.plos_2009;
      selection = `Fixed 1e-4;
    }
  in
  let run = Deconv.Pipeline.run config ~profile:pulse in
  check_true "mismatched model still works"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.7)

let test_ftsz_delay_recovered () =
  (* The Fig. 5 headline: the transcription delay invisible in G(t) is
     visible in the deconvolved profile. *)
  let config =
    { small_config with Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.05; seed = 21 }
  in
  let run = Deconv.Pipeline.run config ~profile:Biomodels.Ftsz.profile in
  (* The raw population signal at early times is NOT near zero relative to
     its peak (the delay is hidden)... *)
  let g = run.Deconv.Pipeline.noisy in
  let g_max = Vec.max g in
  let early_g = g.(1) in
  (* t=15 min, phase ~0.1: the population already shows signal. *)
  check_true "population hides the delay" (early_g > 0.05 *. g_max);
  (* ...but the deconvolved profile IS near zero through the swarmer stage. *)
  check_true "deconvolution reveals the delay"
    (Biomodels.Ftsz.delay_visible ~phases:run.Deconv.Pipeline.phases
       ~values:run.Deconv.Pipeline.estimate.Deconv.Solver.profile ~threshold:0.06)

let test_helpers () =
  let run = Deconv.Pipeline.run small_config ~profile:pulse in
  let minutes, values = Deconv.Pipeline.deconvolved_vs_minutes run in
  check_close ~tol:1e-9 "phase to minutes scaling" (run.Deconv.Pipeline.phases.(10) *. 150.0)
    minutes.(10);
  check_close "values are the estimate" run.Deconv.Pipeline.estimate.Deconv.Solver.profile.(10)
    values.(10)

(* An unusable k is a typed selection error, so the run falls back to
   the solver's default λ instead of dying on an assertion. *)
let test_invalid_kfold_falls_back () =
  let run =
    Deconv.Pipeline.run { small_config with Deconv.Pipeline.selection = `Kfold 1 } ~profile:pulse
  in
  check_close "default lambda" 1e-4 run.Deconv.Pipeline.lambda;
  check_true "still recovers" (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.9)

let tests =
  [
    ( "pipeline",
      [
        case "noiseless recovery" test_noiseless_recovery;
        case "recovery under 10% noise" test_noisy_recovery;
        case "deconvolved beats population" test_deconvolved_beats_population;
        case "same-kernel mode near-perfect" test_same_kernel_mode_near_perfect;
        case "independent-kernel mode" test_independent_kernel_mode;
        case "deterministic" test_pipeline_deterministic;
        case "seed changes data" test_seed_changes_data;
        case "truth/phase consistency" test_truth_and_phases_consistent;
        case "volume-model ablation runs" test_volume_model_ablation_runs;
        case "ftsz delay recovered" test_ftsz_delay_recovered;
        case "plotting helpers" test_helpers;
        case "k = 1 falls back to the default lambda" test_invalid_kfold_falls_back;
      ] );
  ]
