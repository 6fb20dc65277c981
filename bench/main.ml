(* Benchmark & reproduction harness.

   Running `dune exec bench/main.exe` regenerates, as printed series, every
   figure of the paper's evaluation (the paper has no numbered tables):

     fig1_phase_model     - the cell-cycle phase model of Fig. 1 / section 2.1
     fig2_lv_noiseless    - Fig. 2: Lotka-Volterra, noiseless
     fig3_lv_noisy        - Fig. 3: Lotka-Volterra, 10% Gaussian noise
     fig4_cell_types      - Fig. 4: cell-type distribution vs Judd et al.
     fig5_ftsz            - Fig. 5: ftsZ population vs deconvolved

   plus the ablations and extensions indexed in DESIGN.md
   (abl_volume_model, abl_constraints, ext_noise_sweep,
   ext_lambda_selection, ext_param_estimation, ...) and `micro`, which
   prints Bechamel timings of the computational kernels. Every section but
   `micro` prints no timings, so its output is reproducible byte for byte.
   Gated performance numbers come from perfbench/, not from here.

   Pass a subset of section names as argv to run only those sections, e.g.
   `dune exec bench/main.exe -- fig2_lv_noiseless micro`. *)

open Numerics

let section name = Printf.printf "\n######## %s ########\n%!" name

(* Standard experiment sizes: large enough for smooth kernels, small enough
   that the whole harness runs in a couple of minutes. *)
let n_cells = 4000
let n_phi = 201

let lv_times = Dataio.Datasets.lv_measurement_times

let base_config ~times =
  { (Deconv.Pipeline.default_config ~times) with
    Deconv.Pipeline.n_cells_kernel = n_cells;
    n_cells_data = n_cells;
    n_phi;
  }

(* Subsample a (phases, values) curve for table printing. *)
let curve_rows ~stride xs ys =
  let idx = List.filter (fun i -> i mod stride = 0) (List.init (Array.length xs) Fun.id) in
  ( Array.of_list (List.map (fun i -> xs.(i)) idx),
    Array.of_list (List.map (fun i -> ys.(i)) idx) )

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 1: the phase model.                                       *)
(* ------------------------------------------------------------------ *)

let fig1_phase_model () =
  section "fig1_phase_model (cell-cycle phase model, paper fig 1 / sec 2.1)";
  let params = Cellpop.Params.paper_2011 in
  let rng = Rng.create 2011 in
  let n = 20_000 in
  let phi_ssts = Array.init n (fun _ -> Cellpop.Cell.draw_phi_sst params rng) in
  let cycles = Array.init n (fun _ -> Cellpop.Cell.draw_cycle_minutes params rng) in
  let t = Dataio.Table.create ~title:"sampled phase-model parameters (20k cells)"
      ~headers:[ "paper_mean"; "sampled_mean"; "paper_cv"; "sampled_cv" ]
  in
  Dataio.Table.add_row t [| 0.15; Stats.mean phi_ssts; 0.13; Stats.cv phi_ssts |];
  Dataio.Table.add_row t [| 150.0; Stats.mean cycles; 0.10; Stats.cv cycles |];
  Dataio.Table.output stdout t;
  (* The phase axis of Fig. 1: the expected fraction of the cycle spent in
     the SW stage is E[phi_sst] = 0.15. *)
  let sw_fraction = Stats.mean phi_ssts in
  Printf.printf "mean SW-stage fraction of cycle: %.4f (paper: 0.15, updated from 0.25)\n"
    sw_fraction;
  let density_mass =
    Integrate.simpson (Cellpop.Params.sst_density params) ~a:0.0 ~b:0.5 ~n:2000
  in
  Printf.printf "transition-phase density mass on [0,0.5]: %.6f\n" density_mass

(* ------------------------------------------------------------------ *)
(* E2/E3 / Figs. 2-3: Lotka-Volterra deconvolution.                    *)
(* ------------------------------------------------------------------ *)

let lv_profiles =
  lazy
    (let p = Biomodels.Lotka_volterra.default_params in
     let x0 = Biomodels.Lotka_volterra.default_x0 in
     let phases, f1, f2 = Biomodels.Lotka_volterra.phase_profiles p ~x0 ~n_phi:400 in
     let profile values phi = Interp.linear_clamped ~x:phases ~y:values phi in
     (profile f1, profile f2))

let run_lv ~noise ~seed species_name profile =
  let config = { (base_config ~times:lv_times) with Deconv.Pipeline.noise; seed } in
  let run = Deconv.Pipeline.run config ~profile in
  (* Population series at the measurement times. *)
  let t1 =
    Dataio.Table.create
      ~title:(Printf.sprintf "%s: population measurements G(t)" species_name)
      ~headers:[ "minutes"; "population" ]
  in
  Dataio.Table.add_rows t1 [ run.Deconv.Pipeline.config.Deconv.Pipeline.times; run.Deconv.Pipeline.noisy ];
  Dataio.Table.output stdout t1;
  (* Single-cell truth vs deconvolved over one cycle (minutes = phi * 150). *)
  let minutes, deconvolved = Deconv.Pipeline.deconvolved_vs_minutes run in
  let minutes_s, deconvolved_s = curve_rows ~stride:10 minutes deconvolved in
  let _, truth_s = curve_rows ~stride:10 minutes run.Deconv.Pipeline.truth in
  let t2 =
    Dataio.Table.create
      ~title:(Printf.sprintf "%s: single-cell truth vs deconvolved" species_name)
      ~headers:[ "minutes"; "single_cell"; "deconvolved" ]
  in
  Dataio.Table.add_rows t2 [ minutes_s; truth_s; deconvolved_s ];
  Dataio.Table.output stdout t2;
  Printf.printf "%s recovery: %s (lambda=%.3g)\n" species_name
    (Deconv.Metrics.to_string run.Deconv.Pipeline.recovery)
    run.Deconv.Pipeline.lambda;
  run

let fig2_lv_noiseless () =
  section "fig2_lv_noiseless (LV oscillator, noiseless, paper fig 2)";
  let f1, f2 = Lazy.force lv_profiles in
  let r1 = run_lv ~noise:Deconv.Noise.No_noise ~seed:2 "x1" f1 in
  let r2 = run_lv ~noise:Deconv.Noise.No_noise ~seed:2 "x2" f2 in
  (* Headline shape check: deconvolution recovers what the population hides. *)
  let damping run =
    let pop = run.Deconv.Pipeline.noisy and truth = run.Deconv.Pipeline.truth in
    (Vec.max pop -. Vec.min pop) /. (Vec.max truth -. Vec.min truth)
  in
  Printf.printf
    "population amplitude / single-cell amplitude: x1 %.2f, x2 %.2f (asynchrony damps)\n"
    (damping r1) (damping r2);
  Printf.printf "deconvolved corr: x1 %.4f, x2 %.4f (paper: major features recovered)\n"
    r1.Deconv.Pipeline.recovery.Deconv.Metrics.correlation
    r2.Deconv.Pipeline.recovery.Deconv.Metrics.correlation

let fig3_lv_noisy () =
  section "fig3_lv_noisy (LV oscillator, 10% gaussian noise, paper fig 3)";
  let f1, f2 = Lazy.force lv_profiles in
  let r1 = run_lv ~noise:(Deconv.Noise.Gaussian_fraction 0.10) ~seed:3 "x1" f1 in
  let r2 = run_lv ~noise:(Deconv.Noise.Gaussian_fraction 0.10) ~seed:3 "x2" f2 in
  Printf.printf "deconvolved corr under 10%% noise: x1 %.4f, x2 %.4f\n"
    r1.Deconv.Pipeline.recovery.Deconv.Metrics.correlation
    r2.Deconv.Pipeline.recovery.Deconv.Metrics.correlation

(* ------------------------------------------------------------------ *)
(* E4 / Fig. 4: cell-type distribution vs Judd et al.                  *)
(* ------------------------------------------------------------------ *)

let fig4_cell_types () =
  section "fig4_cell_types (cell-type distribution, paper fig 4)";
  (* The population asynchrony is condition-dependent (paper sec 1); the
     Judd et al. batch culture grew in minimal medium with a cell cycle of
     ~180 minutes, slower than the 150-minute reference cycle used for the
     expression experiments. *)
  let params =
    { Cellpop.Params.paper_2011 with
      Cellpop.Params.mean_cycle_minutes = 180.0;
      cv_cycle = 0.18;
    }
  in
  let rng = Rng.create 404 in
  let times = Dataio.Datasets.judd_times in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:20_000 ~times in
  let print_for label boundaries =
    let f = Cellpop.Celltype.fractions_over_time boundaries snapshots in
    let t =
      Dataio.Table.create
        ~title:(Printf.sprintf "simulated cell-type fractions (%s boundaries)" label)
        ~headers:[ "minutes"; "SW"; "STE"; "STEPD"; "STLPD" ]
    in
    Dataio.Table.add_rows t
      [ times; Mat.col f 0; Mat.col f 1; Mat.col f 2; Mat.col f 3 ];
    Dataio.Table.output stdout t;
    f
  in
  ignore (print_for "low" Cellpop.Celltype.low_boundaries);
  let mid = print_for "mid" Cellpop.Celltype.mid_boundaries in
  ignore (print_for "high" Cellpop.Celltype.high_boundaries);
  let t =
    Dataio.Table.create ~title:"experimental fractions (Judd et al., digitized)"
      ~headers:[ "minutes"; "SW"; "STE"; "STEPD"; "STLPD" ]
  in
  Dataio.Table.add_rows t
    [
      times; Dataio.Datasets.judd_sw; Dataio.Datasets.judd_ste; Dataio.Datasets.judd_stepd;
      Dataio.Datasets.judd_stlpd;
    ];
  Dataio.Table.output stdout t;
  (* Shape agreement: max absolute deviation per cell type (mid boundaries). *)
  let dev j data =
    let sim = Mat.col mid j in
    Stats.max_abs_error sim data
  in
  Printf.printf
    "max |simulated - experimental|: SW %.3f, STE %.3f, STEPD %.3f, STLPD %.3f\n"
    (dev 0 Dataio.Datasets.judd_sw) (dev 1 Dataio.Datasets.judd_ste)
    (dev 2 Dataio.Datasets.judd_stepd) (dev 3 Dataio.Datasets.judd_stlpd)

(* ------------------------------------------------------------------ *)
(* E5 / Fig. 5: ftsZ.                                                  *)
(* ------------------------------------------------------------------ *)

let fig5_ftsz () =
  section "fig5_ftsz (population vs deconvolved ftsZ, paper fig 5)";
  let times = Dataio.Datasets.ftsz_measurement_times in
  let config =
    { (base_config ~times) with
      Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.05;
      seed = 5;
    }
  in
  let run = Deconv.Pipeline.run config ~profile:Biomodels.Ftsz.profile in
  let t1 =
    Dataio.Table.create ~title:"population ftsZ expression (microarray analogue)"
      ~headers:[ "minutes"; "population" ]
  in
  Dataio.Table.add_rows t1 [ times; run.Deconv.Pipeline.noisy ];
  Dataio.Table.output stdout t1;
  let minutes, deconvolved = Deconv.Pipeline.deconvolved_vs_minutes run in
  let m_s, d_s = curve_rows ~stride:10 minutes deconvolved in
  let _, truth_s = curve_rows ~stride:10 minutes run.Deconv.Pipeline.truth in
  let t2 =
    Dataio.Table.create ~title:"deconvolved ftsZ expression (simulated time = phi x 150 min)"
      ~headers:[ "sim_minutes"; "deconvolved"; "single_cell_truth" ]
  in
  Dataio.Table.add_rows t2 [ m_s; d_s; truth_s ];
  Dataio.Table.output stdout t2;
  let g = run.Deconv.Pipeline.noisy in
  let phases = run.Deconv.Pipeline.phases in
  let estimate = run.Deconv.Pipeline.estimate.Deconv.Solver.profile in
  Printf.printf "population value at t=13min / peak: %.3f (delay invisible in population data)\n"
    (g.(1) /. Vec.max g);
  Printf.printf "transcription delay visible in deconvolved profile: %b (paper: yes)\n"
    (Biomodels.Ftsz.delay_visible ~phases ~values:estimate ~threshold:0.06);
  Printf.printf "post-peak drop with no subsequent increase: %b (paper's new prediction)\n"
    (Biomodels.Ftsz.post_peak_monotone_drop ~phases ~values:estimate ~tolerance:0.08);
  Printf.printf "deconvolved peak phase: %.3f (paper: ~0.4); recovery %s\n"
    phases.(Vec.argmax estimate)
    (Deconv.Metrics.to_string run.Deconv.Pipeline.recovery)

(* ------------------------------------------------------------------ *)
(* E6: volume-model ablation (sec 3.1).                                *)
(* ------------------------------------------------------------------ *)

let abl_volume_model () =
  section "abl_volume_model (sec 3.1 update: smooth vs linear volume; 0.15 vs 0.25 transition)";
  let f1, _ = Lazy.force lv_profiles in
  (* Data always generated with the full 2011 model; noiseless with a fixed
     small lambda so the systematic model-mismatch error dominates. *)
  let run inversion =
    let config =
      { (base_config ~times:lv_times) with
        Deconv.Pipeline.noise = Deconv.Noise.No_noise;
        seed = 6;
        inversion_params = inversion;
        selection = `Fixed 1e-5;
      }
    in
    Deconv.Pipeline.run config ~profile:f1
  in
  let smooth_2011 = run None in
  let linear_2011 =
    run (Some { Cellpop.Params.paper_2011 with Cellpop.Params.volume_model = Cellpop.Params.Linear })
  in
  let full_2009 = run (Some Cellpop.Params.plos_2009) in
  let t =
    Dataio.Table.create
      ~title:"recovery error by inversion model (data: 2011 smooth model, noiseless)"
      ~headers:[ "mu_sst"; "volume(0=lin,1=smooth)"; "rmse"; "nrmse"; "corr" ]
  in
  let row mu vol (r : Deconv.Pipeline.run) =
    Dataio.Table.add_row t
      [| mu; vol; r.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
         r.Deconv.Pipeline.recovery.Deconv.Metrics.nrmse;
         r.Deconv.Pipeline.recovery.Deconv.Metrics.correlation |]
  in
  row 0.15 1.0 smooth_2011;
  row 0.15 0.0 linear_2011;
  row 0.25 0.0 full_2009;
  Dataio.Table.output stdout t;
  (* How different are the kernels themselves? *)
  let kernel_l1 (a : Cellpop.Kernel.t) (b : Cellpop.Kernel.t) =
    let diff = Mat.sub a.Cellpop.Kernel.q b.Cellpop.Kernel.q in
    Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 diff.Mat.data
    *. a.Cellpop.Kernel.bin_width
    /. float_of_int (Array.length a.Cellpop.Kernel.times)
  in
  Printf.printf "mean L1 kernel difference: smooth-vs-linear %.4f, 2011-vs-2009 %.4f\n"
    (kernel_l1 smooth_2011.Deconv.Pipeline.kernel linear_2011.Deconv.Pipeline.kernel)
    (kernel_l1 smooth_2011.Deconv.Pipeline.kernel full_2009.Deconv.Pipeline.kernel);
  Printf.printf
    "rmse ratios vs matched model: linear-volume %.2f, full-2009 %.2f (>=1 expected; the\n\
     transition-phase update dominates, volume smoothing is a fidelity refinement)\n"
    (linear_2011.Deconv.Pipeline.recovery.Deconv.Metrics.rmse
    /. smooth_2011.Deconv.Pipeline.recovery.Deconv.Metrics.rmse)
    (full_2009.Deconv.Pipeline.recovery.Deconv.Metrics.rmse
    /. smooth_2011.Deconv.Pipeline.recovery.Deconv.Metrics.rmse)

(* ------------------------------------------------------------------ *)
(* E7: constraint ablation (sec 3.2 update).                           *)
(* ------------------------------------------------------------------ *)

let abl_constraints () =
  section "abl_constraints (sec 2.3/3.2: positivity, conservation, rate continuity)";
  let _, f2 = Lazy.force lv_profiles in
  let run ~times ~profile ~seed ~pos ~cons ~rate =
    let config =
      { (base_config ~times) with
        Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
        seed;
        use_positivity = pos;
        use_conservation = cons;
        use_rate_continuity = rate;
      }
    in
    Deconv.Pipeline.run config ~profile
  in
  let sweep title ~times ~profile ~seed =
    let t =
      Dataio.Table.create ~title
        ~headers:[ "positivity"; "conservation"; "rate_cont"; "rmse"; "corr"; "min_f" ]
    in
    List.iter
      (fun (pos, cons, rate) ->
        let r = run ~times ~profile ~seed ~pos ~cons ~rate in
        Dataio.Table.add_row t
          [| (if pos then 1.0 else 0.0); (if cons then 1.0 else 0.0); (if rate then 1.0 else 0.0);
             r.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
             r.Deconv.Pipeline.recovery.Deconv.Metrics.correlation;
             Vec.min r.Deconv.Pipeline.estimate.Deconv.Solver.profile |])
      [ (false, false, false); (true, false, false); (true, true, false); (true, false, true);
        (true, true, true) ];
    Dataio.Table.output stdout t
  in
  (* LV x2 is periodic, so it mildly VIOLATES the division-conservation
     assumption f(1) = 0.4 f(0) + 0.6 f(phi_sst); ftsZ satisfies it. The two
     panels show the constraints helping when the biology matches and
     costing a little when it does not. *)
  sweep "recovery vs constraints (LV x2, 10% noise; truth violates conservation)"
    ~times:lv_times ~profile:f2 ~seed:7;
  sweep "recovery vs constraints (ftsZ, 10% noise; truth satisfies conservation)"
    ~times:Dataio.Datasets.ftsz_measurement_times ~profile:Biomodels.Ftsz.profile ~seed:17

(* ------------------------------------------------------------------ *)
(* Extension: noise sweep (paper: "several levels and types of noise") *)
(* ------------------------------------------------------------------ *)

let ext_noise_sweep () =
  section "ext_noise_sweep (noise level x type, LV x1)";
  let f1, _ = Lazy.force lv_profiles in
  let t =
    Dataio.Table.create ~title:"recovery vs noise (type 0=additive gaussian, 1=lognormal)"
      ~headers:[ "type"; "level_pct"; "rmse"; "nrmse"; "corr" ]
  in
  List.iter
    (fun (type_id, make_noise) ->
      List.iter
        (fun level ->
          let noise = if Float.equal level 0.0 then Deconv.Noise.No_noise else make_noise level in
          let config =
            { (base_config ~times:lv_times) with Deconv.Pipeline.noise; seed = 8 }
          in
          let r = Deconv.Pipeline.run config ~profile:f1 in
          Dataio.Table.add_row t
            [| type_id; 100.0 *. level; r.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
               r.Deconv.Pipeline.recovery.Deconv.Metrics.nrmse;
               r.Deconv.Pipeline.recovery.Deconv.Metrics.correlation |])
        [ 0.0; 0.05; 0.10; 0.20 ])
    [
      (0.0, fun level -> Deconv.Noise.Gaussian_fraction level);
      (1.0, fun level -> Deconv.Noise.Multiplicative_lognormal level);
    ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: lambda selection study (sec 2.3, Craven-Wahba).          *)
(* ------------------------------------------------------------------ *)

let ext_lambda_selection () =
  section "ext_lambda_selection (GCV curve, chosen vs oracle, knot sweep)";
  let f1, _ = Lazy.force lv_profiles in
  let config =
    { (base_config ~times:lv_times) with
      Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
      seed = 9;
      selection = `Fixed 1e-4;
    }
  in
  let run = Deconv.Pipeline.run config ~profile:f1 in
  let problem = run.Deconv.Pipeline.problem in
  let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-7.0) ~hi:1.0 ~count:17 in
  let gcv_best, curve = Deconv.Lambda.gcv problem ~lambdas in
  let t = Dataio.Table.create ~title:"GCV curve" ~headers:[ "lambda"; "gcv_score"; "oracle_rmse" ] in
  let truth = run.Deconv.Pipeline.truth in
  let oracle_rmse = Array.map (fun lambda ->
      let est = Deconv.Solver.solve ~lambda problem in
      Stats.rmse truth est.Deconv.Solver.profile) lambdas
  in
  Dataio.Table.add_rows t
    [ lambdas; Array.map (fun (p : Deconv.Lambda.curve_point) -> p.Deconv.Lambda.score) curve;
      oracle_rmse ];
  Dataio.Table.output stdout t;
  let oracle_best = lambdas.(Vec.argmin oracle_rmse) in
  Printf.printf "GCV-chosen lambda: %.3g; oracle lambda: %.3g (same order expected)\n" gcv_best
    oracle_best;
  (* Method comparison: lambda and downstream error per selector. *)
  let t_m =
    Dataio.Table.create ~title:"lambda selection methods"
      ~headers:[ "method(0=gcv,1=kfold5,2=lcurve)"; "lambda"; "oracle_rmse_at_lambda" ]
  in
  let rmse_at lambda =
    Stats.rmse truth (Deconv.Solver.solve ~lambda problem).Deconv.Solver.profile
  in
  List.iteri
    (fun i method_ ->
      let lambda = Deconv.Lambda.select problem ~method_ ~rng:(Rng.create 99) ~lambdas () in
      Dataio.Table.add_row t_m [| float_of_int i; lambda; rmse_at lambda |])
    [ `Gcv; `Kfold 5; `Lcurve ];
  Dataio.Table.output stdout t_m;
  (* Knot-count sweep at the GCV lambda. *)
  let t2 = Dataio.Table.create ~title:"knot-count sweep (GCV lambda per size)"
      ~headers:[ "num_knots"; "rmse"; "corr" ] in
  List.iter
    (fun num_knots ->
      let config2 = { config with Deconv.Pipeline.num_knots; selection = `Gcv } in
      let r = Deconv.Pipeline.run config2 ~profile:f1 in
      Dataio.Table.add_row t2
        [| float_of_int num_knots; r.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
           r.Deconv.Pipeline.recovery.Deconv.Metrics.correlation |])
    [ 6; 8; 10; 12; 16; 20 ];
  Dataio.Table.output stdout t2

(* ------------------------------------------------------------------ *)
(* Extension: parameter estimation (sec 5 ongoing work).               *)
(* ------------------------------------------------------------------ *)

let ext_param_estimation () =
  section "ext_param_estimation (sec 5: fitting LV parameters, population vs deconvolved)";
  let p_true = Biomodels.Lotka_volterra.default_params in
  let x0 = Biomodels.Lotka_volterra.default_x0 in
  let f1, f2 = Lazy.force lv_profiles in
  let noise = Deconv.Noise.Gaussian_fraction 0.05 in
  let config = { (base_config ~times:lv_times) with Deconv.Pipeline.noise; seed = 10 } in
  let run1 = Deconv.Pipeline.run config ~profile:f1 in
  let run2 = Deconv.Pipeline.run config ~profile:f2 in
  (* Objective builder: squared error of the LV solution (both species,
     phase-aligned over one cycle) against target series. *)
  let simulate_profile p =
    match Biomodels.Lotka_volterra.phase_profiles p ~x0 ~n_phi:60 with
    | _, g1, g2 -> Some (g1, g2)
    | exception _ -> None
  in
  let coarse xs =
    (* Resample a 201-bin profile to 60 bins by linear interpolation. *)
    let phases201 = run1.Deconv.Pipeline.phases in
    Array.init 60 (fun j ->
        let phi = (float_of_int j +. 0.5) /. 60.0 in
        Interp.linear_clamped ~x:phases201 ~y:xs phi)
  in
  let objective target1 target2 log_params =
    let p =
      {
        Biomodels.Lotka_volterra.a = exp log_params.(0);
        b = exp log_params.(1);
        c = exp log_params.(2);
        d = exp log_params.(3);
      }
    in
    match simulate_profile p with
    | None -> 1e9
    | Some (g1, g2) ->
      let e1 = Stats.rmse g1 target1 and e2 = Stats.rmse g2 target2 in
      (e1 /. Float.max 0.1 (Vec.max target1)) +. (e2 /. Float.max 0.1 (Vec.max target2))
  in
  let fit target1 target2 =
    let start =
      [| log (p_true.Biomodels.Lotka_volterra.a *. 1.4);
         log (p_true.Biomodels.Lotka_volterra.b /. 1.4);
         log (p_true.Biomodels.Lotka_volterra.c *. 1.3);
         log (p_true.Biomodels.Lotka_volterra.d /. 1.3) |]
    in
    let options = { Optimize.Nelder_mead.default_options with max_iter = 250 } in
    let result = Optimize.Nelder_mead.minimize ~options (objective target1 target2) ~x0:start in
    Array.map exp result.Optimize.Nelder_mead.x
  in
  (* (a) Fit to deconvolved profiles. *)
  let dec1 = coarse run1.Deconv.Pipeline.estimate.Deconv.Solver.profile in
  let dec2 = coarse run2.Deconv.Pipeline.estimate.Deconv.Solver.profile in
  let fitted_dec = fit dec1 dec2 in
  (* (b) Fit to raw population data, pretending it is single-cell data (the
     naive approach the paper argues against): interpolate G(t) onto the
     phase grid via t = phi * 150. *)
  let pop_as_profile run =
    Array.init 60 (fun j ->
        let phi = (float_of_int j +. 0.5) /. 60.0 in
        Interp.linear_clamped ~x:lv_times ~y:run.Deconv.Pipeline.noisy (phi *. 150.0))
  in
  let fitted_pop = fit (pop_as_profile run1) (pop_as_profile run2) in
  let true_params =
    [| p_true.Biomodels.Lotka_volterra.a; p_true.Biomodels.Lotka_volterra.b;
       p_true.Biomodels.Lotka_volterra.c; p_true.Biomodels.Lotka_volterra.d |]
  in
  let t =
    Dataio.Table.create ~title:"LV parameter estimates"
      ~headers:[ "param(0=a,1=b,2=c,3=d)"; "true"; "fit_deconvolved"; "fit_population" ]
  in
  Array.iteri
    (fun i v -> Dataio.Table.add_row t [| float_of_int i; v; fitted_dec.(i); fitted_pop.(i) |])
    true_params;
  Dataio.Table.output stdout t;
  let mean_rel fitted =
    let acc = ref 0.0 in
    Array.iteri (fun i v -> acc := !acc +. (Float.abs (fitted.(i) -. v) /. v)) true_params;
    !acc /. 4.0
  in
  Printf.printf
    "mean relative parameter error: deconvolved %.3f, population %.3f (paper: deconvolution helps)\n"
    (mean_rel fitted_dec) (mean_rel fitted_pop)

(* ------------------------------------------------------------------ *)
(* Ablation: kernel estimator (Monte-Carlo vs analytic, cell count).   *)
(* ------------------------------------------------------------------ *)

let abl_kernel_estimator () =
  section "abl_kernel_estimator (MC kernel vs exact first-cycle quadrature)";
  let params = Cellpop.Params.paper_2011 in
  let short_times = [| 0.0; 20.0; 40.0; 60.0; 80.0 |] in
  let analytic = Cellpop.Kernel_analytic.estimate params ~times:short_times ~n_phi:101 in
  Printf.printf "analytic kernel valid until %.1f min (first division of the fastest cohort)\n"
    (Cellpop.Kernel_analytic.valid_until params);
  let l1_vs_analytic kernel m =
    let ra = Cellpop.Kernel.row analytic m and rk = Cellpop.Kernel.row kernel m in
    let acc = ref 0.0 in
    Array.iteri (fun j a -> acc := !acc +. (Float.abs (a -. rk.(j)) *. analytic.Cellpop.Kernel.bin_width)) ra;
    !acc
  in
  let t =
    Dataio.Table.create ~title:"mean L1 distance to the exact kernel vs MC cell count"
      ~headers:[ "n_cells"; "mean_L1"; "max_L1" ]
  in
  List.iter
    (fun n_cells ->
      let mc =
        Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 42) ~n_cells
          ~times:short_times ~n_phi:101
      in
      let l1s = Array.init 5 (l1_vs_analytic mc) in
      Dataio.Table.add_row t [| float_of_int n_cells; Vec.mean l1s; Vec.max l1s |])
    [ 250; 1000; 4000; 16000 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: intrinsic single-cell noise (Gillespie cells).           *)
(* ------------------------------------------------------------------ *)

let ext_intrinsic_noise () =
  section "ext_intrinsic_noise (stochastic single cells, sec 1's 'independent of stochasticity')";
  let p = Biomodels.Lotka_volterra.default_params in
  let params = Cellpop.Params.paper_2011 in
  let times = lv_times in
  let t =
    Dataio.Table.create
      ~title:"recovery of the ensemble-mean profile vs reaction volume (smaller = noisier cells)"
      ~headers:[ "volume"; "intrinsic_cv"; "rmse"; "corr" ]
  in
  List.iter
    (fun volume ->
      let rng = Rng.create 1300 in
      let network =
        Stochastic.Networks.lotka_volterra ~a:p.Biomodels.Lotka_volterra.a
          ~b:p.Biomodels.Lotka_volterra.b ~c:p.Biomodels.Lotka_volterra.c
          ~d:p.Biomodels.Lotka_volterra.d ~volume
      in
      let x0 =
        Stochastic.Networks.concentrations_to_counts ~volume Biomodels.Lotka_volterra.default_x0
      in
      let n_phi_local = 201 in
      let grid = Array.init n_phi_local (fun j -> (float_of_int j +. 0.5) /. 201.0) in
      let pool =
        Array.init 80 (fun _ ->
            let trajectory =
              Stochastic.Gillespie.direct network ~rng:(Rng.split rng) ~x0 ~t0:0.0 ~t1:151.0
            in
            Array.map
              (fun phi -> Stochastic.Gillespie.value_at trajectory ~species:0 (phi *. 150.0) /. volume)
              grid)
      in
      let ensemble_mean =
        Array.init n_phi_local (fun j ->
            Array.fold_left (fun acc cell -> acc +. cell.(j)) 0.0 pool /. 80.0)
      in
      let intrinsic_cv = Stats.cv (Array.map (fun cell -> cell.(100)) pool) in
      let snapshots = Cellpop.Population.simulate params ~rng:(Rng.split rng) ~n0:3000 ~times in
      let signal =
        Array.map
          (fun (s : Cellpop.Population.snapshot) ->
            let num = ref 0.0 and den = ref 0.0 in
            Array.iter
              (fun (c : Cellpop.Cell.t) ->
                let v = Cellpop.Cell.volume params c in
                let cell = Rng.pick rng pool in
                num := !num +. (v *. Interp.linear_clamped ~x:grid ~y:cell c.Cellpop.Cell.phase);
                den := !den +. v)
              s.Cellpop.Population.cells;
            !num /. !den)
          snapshots
      in
      let kernel =
        Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.split rng) ~n_cells:3000
          ~times ~n_phi:n_phi_local
      in
      let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
      let problem = Deconv.Problem.create ~kernel ~basis ~measurements:signal ~params () in
      let lambda = Deconv.Lambda.select problem ~method_:`Gcv () in
      let estimate = Deconv.Solver.solve ~lambda problem in
      let recovery =
        Deconv.Metrics.compare ~truth:ensemble_mean ~estimate:estimate.Deconv.Solver.profile
      in
      Dataio.Table.add_row t
        [| volume; intrinsic_cv; recovery.Deconv.Metrics.rmse; recovery.Deconv.Metrics.correlation |])
    [ 1000.0; 300.0; 100.0; 30.0 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: identifiability (how ill-posed is the inversion?).       *)
(* ------------------------------------------------------------------ *)

let ext_identifiability () =
  section "ext_identifiability (singular spectrum of the forward operator, sec 2.3)";
  let params = Cellpop.Params.paper_2011 in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  let schedules =
    [|
      Array.init 5 (fun i -> 45.0 *. float_of_int i);
      Array.init 7 (fun i -> 30.0 *. float_of_int i);
      Array.init 13 (fun i -> 15.0 *. float_of_int i);
      Array.init 25 (fun i -> 7.5 *. float_of_int i);
    |]
  in
  let reports =
    Deconv.Identifiability.measurement_sweep params ~rng:(Rng.create 1400) ~n_cells:4000 ~basis
      ~schedules ~n_phi:201
  in
  let t =
    Dataio.Table.create ~title:"identifiable spline modes vs measurement count and noise"
      ~headers:[ "num_measurements"; "rank@0.1%"; "rank@1%"; "rank@10%"; "condition" ]
  in
  Array.iter
    (fun (n_m, report) ->
      Dataio.Table.add_row t
        [|
          float_of_int n_m;
          float_of_int (Deconv.Identifiability.effective_rank report ~relative_noise:0.001);
          float_of_int (Deconv.Identifiability.effective_rank report ~relative_noise:0.01);
          float_of_int (Deconv.Identifiability.effective_rank report ~relative_noise:0.1);
          report.Deconv.Identifiability.condition;
        |])
    reports;
  Dataio.Table.output stdout t;
  let _, full = reports.(2) in
  Printf.printf "singular values (13 measurements): %s\n"
    (String.concat " "
       (Array.to_list
          (Array.map (Printf.sprintf "%.2g") full.Deconv.Identifiability.singular_values)))

(* ------------------------------------------------------------------ *)
(* Extension: synchrony decay of the batch culture.                    *)
(* ------------------------------------------------------------------ *)

let ext_synchrony () =
  section "ext_synchrony (how fast the synchronized culture decays to asynchrony)";
  let times = Vec.linspace 0.0 600.0 13 in
  let t =
    Dataio.Table.create ~title:"Kuramoto order parameter R(t) vs cycle-time variability"
      ~headers:[ "minutes"; "R(cv=0.05)"; "R(cv=0.10)"; "R(cv=0.20)" ]
  in
  let series =
    List.map
      (fun cv ->
        let params = { Cellpop.Params.paper_2011 with Cellpop.Params.cv_cycle = cv } in
        let snapshots =
          Cellpop.Population.simulate params ~rng:(Rng.create 1500) ~n0:8000 ~times
        in
        fst (Cellpop.Synchrony.over_time snapshots))
      [ 0.05; 0.10; 0.20 ]
  in
  (match series with
  | [ a; b; c ] -> Dataio.Table.add_rows t [ times; a; b; c ]
  | _ -> assert false);
  Dataio.Table.output stdout t;
  List.iteri
    (fun i r ->
      let cv = List.nth [ 0.05; 0.10; 0.20 ] i in
      match Cellpop.Synchrony.decay_time r ~times ~threshold:0.5 with
      | Some d -> Printf.printf "cv_cycle %.2f: R < 0.5 after %.0f min\n" cv d
      | None -> Printf.printf "cv_cycle %.2f: stays above 0.5 through 600 min\n" cv)
    series

(* ------------------------------------------------------------------ *)
(* Extension: baseline comparison (Richardson-Lucy vs the paper).      *)
(* ------------------------------------------------------------------ *)

let ext_baseline_rl () =
  section "ext_baseline_rl (regularized spline method vs Richardson-Lucy baseline)";
  let f1, _ = Lazy.force lv_profiles in
  let t =
    Dataio.Table.create ~title:"recovery vs noise: paper's method / RL(100) / RL(1000) / naive"
      ~headers:[ "noise_pct"; "spline_rmse"; "rl100_rmse"; "rl1000_rmse"; "naive_rmse" ]
  in
  List.iter
    (fun level ->
      let noise =
        if Float.equal level 0.0 then Deconv.Noise.No_noise else Deconv.Noise.Gaussian_fraction level
      in
      let config = { (base_config ~times:lv_times) with Deconv.Pipeline.noise; seed = 16 } in
      let run = Deconv.Pipeline.run config ~profile:f1 in
      let truth = run.Deconv.Pipeline.truth in
      let spline_rmse = run.Deconv.Pipeline.recovery.Deconv.Metrics.rmse in
      let rl iterations =
        let result =
          Deconv.Richardson_lucy.deconvolve ~iterations run.Deconv.Pipeline.kernel
            ~measurements:run.Deconv.Pipeline.noisy ()
        in
        Stats.rmse truth result.Deconv.Richardson_lucy.profile
      in
      let naive = Deconv.Solver.naive run.Deconv.Pipeline.problem in
      Dataio.Table.add_row t
        [| 100.0 *. level; spline_rmse; rl 100; rl 1000;
           Stats.rmse truth naive.Deconv.Solver.profile |])
    [ 0.0; 0.05; 0.10 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: bootstrap uncertainty bands.                             *)
(* ------------------------------------------------------------------ *)

let ext_bootstrap () =
  section "ext_bootstrap (residual-bootstrap bands for the deconvolved profile)";
  let f1, _ = Lazy.force lv_profiles in
  let config =
    { (base_config ~times:lv_times) with
      Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
      seed = 18;
    }
  in
  let run = Deconv.Pipeline.run config ~profile:f1 in
  let bands =
    Deconv.Bootstrap.residual ~replicates:200 ~level:0.9 run.Deconv.Pipeline.problem
      run.Deconv.Pipeline.estimate ~rng:(Rng.create 1600)
  in
  let t =
    Dataio.Table.create ~title:"90% bands (every 20th phase point)"
      ~headers:[ "phi"; "lower"; "estimate"; "upper"; "truth" ]
  in
  let phases = run.Deconv.Pipeline.phases in
  for j = 0 to Array.length phases - 1 do
    if j mod 20 = 0 then
      Dataio.Table.add_row t
        [| phases.(j); bands.Deconv.Bootstrap.lower.(j);
           run.Deconv.Pipeline.estimate.Deconv.Solver.profile.(j);
           bands.Deconv.Bootstrap.upper.(j); run.Deconv.Pipeline.truth.(j) |]
  done;
  Dataio.Table.output stdout t;
  Printf.printf "mean band width: %.4f; truth coverage: %.2f (sampling-only bands,\n\
                 smoothing bias excluded -- see Deconv.Bootstrap doc)\n"
    (Vec.mean (Deconv.Bootstrap.width bands))
    (Deconv.Bootstrap.coverage bands ~truth:run.Deconv.Pipeline.truth)

(* ------------------------------------------------------------------ *)
(* Extension: whole-regulon batch deconvolution via microarray chain.  *)
(* ------------------------------------------------------------------ *)

let ext_regulon () =
  section "ext_regulon (12-gene panel through the microarray pipeline, batch deconvolution)";
  let genes = Biomodels.Cell_cycle_genes.panel in
  let params = Cellpop.Params.paper_2011 in
  let rng = Rng.create 777 in
  let data_kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.split rng) ~n_cells:n_cells
      ~times:lv_times ~n_phi
  in
  let true_signals =
    Mat.of_rows
      (Array.map
         (fun (g : Biomodels.Cell_cycle_genes.gene) ->
           Deconv.Forward.apply_fn data_kernel g.Biomodels.Cell_cycle_genes.profile)
         genes)
  in
  let raw =
    Microarray.Timecourse.simulate ~replicates:3 (Rng.split rng)
      ~gene_names:(Array.map (fun (g : Biomodels.Cell_cycle_genes.gene) -> g.Biomodels.Cell_cycle_genes.name) genes)
      ~times:lv_times ~true_signals
  in
  let processed = Microarray.Timecourse.process raw in
  let inversion_kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.split rng) ~n_cells:n_cells
      ~times:lv_times ~n_phi
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  let batch = Deconv.Batch.prepare ~kernel:inversion_kernel ~basis ~params () in
  let estimates =
    Deconv.Batch.solve_all batch ~sigmas:processed.Microarray.Timecourse.sigmas
      ~measurements:processed.Microarray.Timecourse.estimates ()
  in
  let predicted =
    Deconv.Batch.classify_by_peak batch estimates
      ~boundaries:Biomodels.Cell_cycle_genes.class_boundaries
  in
  let t =
    Dataio.Table.create ~title:"per-gene results"
      ~headers:[ "gene_idx"; "true_peak"; "est_peak"; "true_class"; "pred_class"; "corr" ]
  in
  let phases = Deconv.Batch.phases batch in
  let correct = ref 0 in
  Array.iteri
    (fun i (g : Biomodels.Cell_cycle_genes.gene) ->
      let true_class = Biomodels.Cell_cycle_genes.class_index g in
      if predicted.(i) = true_class then incr correct;
      let truth = Array.map g.Biomodels.Cell_cycle_genes.profile phases in
      Dataio.Table.add_row t
        [| float_of_int i; g.Biomodels.Cell_cycle_genes.peak_phase;
           Deconv.Batch.peak_phase batch estimates.(i); float_of_int true_class;
           float_of_int predicted.(i);
           Stats.correlation truth estimates.(i).Deconv.Solver.profile |])
    genes;
  Dataio.Table.output stdout t;
  Printf.printf "classification accuracy: %d/%d\n" !correct (Array.length genes)

(* ------------------------------------------------------------------ *)
(* Ablation: spline basis choice (natural vs B-spline).                *)
(* ------------------------------------------------------------------ *)

let abl_basis () =
  section "abl_basis (natural cubic basis, as in the paper, vs cubic B-splines)";
  let params = Cellpop.Params.paper_2011 in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 2200) ~n_cells:n_cells
      ~times:lv_times ~n_phi
  in
  let f1, _ = Lazy.force lv_profiles in
  let truth = Array.map f1 kernel.Cellpop.Kernel.phases in
  let clean = Deconv.Forward.apply_fn kernel f1 in
  let t =
    Dataio.Table.create ~title:"recovery by basis (matched sizes, GCV lambda, 10% noise)"
      ~headers:[ "basis(0=natural,1=bspline)"; "size"; "rmse"; "corr" ]
  in
  List.iter
    (fun size ->
      let noisy, sigmas =
        Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) (Rng.create 2201) clean
      in
      List.iter
        (fun (kind, basis) ->
          let problem =
            Deconv.Problem.create ~sigmas ~kernel ~basis ~measurements:noisy ~params ()
          in
          let lambda = Deconv.Lambda.select problem ~method_:`Gcv () in
          let estimate = Deconv.Solver.solve ~lambda problem in
          let c = Deconv.Metrics.compare ~truth ~estimate:estimate.Deconv.Solver.profile in
          Dataio.Table.add_row t
            [| kind; float_of_int size; c.Deconv.Metrics.rmse; c.Deconv.Metrics.correlation |])
        [
          (0.0, Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:size);
          (1.0, Spline.Bspline.create ~lo:0.0 ~hi:1.0 ~num_basis:size);
        ])
    [ 8; 12; 16 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: population growth vs branching-process theory.           *)
(* ------------------------------------------------------------------ *)

let ext_growth () =
  section "ext_growth (population growth rate vs Euler-Lotka prediction)";
  let t =
    Dataio.Table.create
      ~title:"asymptotic growth: two-type branching theory vs simulation"
      ~headers:[ "mu_sst"; "r_theory"; "r_simulated"; "doubling_theory_min"; "ratio" ]
  in
  List.iter
    (fun mu_sst ->
      let p =
        { Cellpop.Params.paper_2011 with Cellpop.Params.mu_sst; cv_cycle = 0.03; cv_sst = 0.03 }
      in
      let predicted = Cellpop.Population.euler_lotka_rate p in
      let times = Vec.linspace 0.0 700.0 15 in
      let snapshots = Cellpop.Population.simulate p ~rng:(Rng.create 2300) ~n0:2000 ~times in
      let measured = Cellpop.Population.growth_rate snapshots in
      Dataio.Table.add_row t
        [| mu_sst; predicted; measured; log 2.0 /. predicted; measured /. predicted |])
    [ 0.05; 0.15; 0.25 ];
  Dataio.Table.output stdout t;
  Printf.printf
    "(stalked daughters skip the swarmer stage, so the population doubles faster than the\n\
    \ 150-minute cycle; the larger mu_sst, the bigger the shortcut)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: representation (spline basis vs grid Tikhonov).           *)
(* ------------------------------------------------------------------ *)

let abl_representation () =
  section "abl_representation (paper's spline basis vs basis-free grid Tikhonov)";
  let f1, _ = Lazy.force lv_profiles in
  let t =
    Dataio.Table.create
      ~title:"recovery by representation (oracle-best lambda per method, per noise level)"
      ~headers:[ "noise_pct"; "spline_rmse"; "grid_rmse"; "spline_dof"; "grid_dof" ]
  in
  List.iter
    (fun level ->
      let noise =
        if Float.equal level 0.0 then Deconv.Noise.No_noise else Deconv.Noise.Gaussian_fraction level
      in
      let config = { (base_config ~times:lv_times) with Deconv.Pipeline.noise; seed = 28 } in
      let run = Deconv.Pipeline.run config ~profile:f1 in
      let truth = run.Deconv.Pipeline.truth in
      let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-6.0) ~hi:(-1.0) ~count:11 in
      let best_spline =
        Array.fold_left
          (fun acc lambda ->
            let est = Deconv.Solver.solve ~lambda run.Deconv.Pipeline.problem in
            Float.min acc (Stats.rmse truth est.Deconv.Solver.profile))
          Float.infinity lambdas
      in
      let best_grid =
        Array.fold_left
          (fun acc lambda ->
            let est =
              Deconv.Grid_solver.solve ~lambda run.Deconv.Pipeline.kernel
                ~measurements:run.Deconv.Pipeline.noisy ~sigmas:run.Deconv.Pipeline.sigmas ()
            in
            Float.min acc (Stats.rmse truth est.Deconv.Grid_solver.profile))
          Float.infinity lambdas
      in
      Dataio.Table.add_row t [| 100.0 *. level; best_spline; best_grid; 12.0; 201.0 |])
    [ 0.0; 0.10 ];
  Dataio.Table.output stdout t;
  Printf.printf
    "(both regularize to similar accuracy; the spline carries the conservation/rate\n\
    \ constraints naturally and solves a 12-variable QP instead of a 201-variable one)\n"

(* ------------------------------------------------------------------ *)
(* Extension: how much kernel simulation is enough?                    *)
(* ------------------------------------------------------------------ *)

let ext_kernel_budget () =
  section "ext_kernel_budget (recovery vs Monte-Carlo kernel cell count)";
  let f1, _ = Lazy.force lv_profiles in
  let t =
    Dataio.Table.create
      ~title:"recovery vs kernel cell count (5 independent kernels each, 10% noise)"
      ~headers:[ "kernel_cells"; "mean_rmse"; "sd_rmse" ]
  in
  List.iter
    (fun cells ->
      let rmses =
        Array.init 5 (fun k ->
            let config =
              { (base_config ~times:lv_times) with
                Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
                n_cells_kernel = cells;
                seed = 29 + k;
              }
            in
            (Deconv.Pipeline.run config ~profile:f1).Deconv.Pipeline.recovery.Deconv.Metrics.rmse)
      in
      Dataio.Table.add_row t [| float_of_int cells; Stats.mean rmses; Stats.std rmses |])
    [ 250; 1000; 4000; 16000 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: characterizing the asynchrony from observable data.      *)
(* ------------------------------------------------------------------ *)

let ext_calibration () =
  section "ext_calibration (fitting the asynchrony model to cell-type fraction data, sec 1)";
  let boundaries = Cellpop.Celltype.mid_boundaries in
  (* Self-consistency: recover known parameters from simulated fractions. *)
  let truth =
    { Cellpop.Params.paper_2011 with Cellpop.Params.mean_cycle_minutes = 180.0; cv_cycle = 0.18 }
  in
  let times = [| 75.0; 90.0; 105.0; 120.0; 135.0; 150.0 |] in
  let snapshots = Cellpop.Population.simulate truth ~rng:(Rng.create 99) ~n0:20_000 ~times in
  let obs =
    { Cellpop.Calibrate.times;
      fractions = Cellpop.Celltype.fractions_over_time boundaries snapshots }
  in
  let fitted = Cellpop.Calibrate.fit ~base:Cellpop.Params.paper_2011 ~boundaries obs in
  let t =
    Dataio.Table.create ~title:"self-consistency: true vs fitted asynchrony parameters"
      ~headers:[ "param(0=mu_sst,1=T,2=cv)"; "true"; "fitted" ]
  in
  let fp = fitted.Cellpop.Calibrate.params in
  Dataio.Table.add_row t [| 0.0; 0.15; fp.Cellpop.Params.mu_sst |];
  Dataio.Table.add_row t [| 1.0; 180.0; fp.Cellpop.Params.mean_cycle_minutes |];
  Dataio.Table.add_row t [| 2.0; 0.18; fp.Cellpop.Params.cv_cycle |];
  Dataio.Table.output stdout t;
  Printf.printf "objective %.2e in %d simulator evaluations\n"
    fitted.Cellpop.Calibrate.objective_value fitted.Cellpop.Calibrate.evaluations;
  (* Characterize the Judd et al. culture. *)
  let judd_fit =
    Cellpop.Calibrate.fit ~base:Cellpop.Params.paper_2011 ~boundaries Cellpop.Calibrate.judd
  in
  let jp = judd_fit.Cellpop.Calibrate.params in
  Printf.printf
    "Judd et al. culture characterized: mu_sst %.2f, cycle %.0f min, cv %.2f (rms fraction\n\
    \ error %.3f; digitized data, so parameters are indicative)\n"
    jp.Cellpop.Params.mu_sst jp.Cellpop.Params.mean_cycle_minutes jp.Cellpop.Params.cv_cycle
    (sqrt judd_fit.Cellpop.Calibrate.objective_value)

(* ------------------------------------------------------------------ *)
(* Extension: DNA-content (FACS-style) validation of the phase model.  *)
(* ------------------------------------------------------------------ *)

let ext_dna_content () =
  section "ext_dna_content (flow-cytometry observable of the phase distribution)";
  let params = Cellpop.Params.paper_2011 in
  let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0 |] in
  let snapshots = Cellpop.Population.simulate params ~rng:(Rng.create 2400) ~n0:20_000 ~times in
  let f = Cellpop.Dna_content.fractions_over_time snapshots in
  let t =
    Dataio.Table.create ~title:"DNA-content fractions of the synchronized culture"
      ~headers:[ "minutes"; "1C"; "S_phase"; "2C" ]
  in
  Dataio.Table.add_rows t [ times; Mat.col f 0; Mat.col f 1; Mat.col f 2 ];
  Dataio.Table.output stdout t;
  Printf.printf
    "(all-1C at t=0 because replication initiates at the SW->ST transition; S-phase\n\
    \ sweeps through, then 2C accumulates until divisions reset cells to 1C)\n";
  (* The synchronized culture moves through S-phase as a block (above);
     an ASYNCHRONOUS culture shows the classic spread FACS profile. *)
  let async_params =
    { params with Cellpop.Params.initial_condition = Cellpop.Params.Uniform_phase }
  in
  let async =
    (Cellpop.Population.simulate async_params ~rng:(Rng.create 2402) ~n0:20_000 ~times:[| 0.0 |]).(0)
  in
  let one_c, s_phase, two_c = Cellpop.Dna_content.fractions async in
  Printf.printf
    "asynchronous control: 1C %.3f, S %.3f, 2C %.3f (Caulobacter replicates through\n\
    \ most of its cycle, so S dominates; 1C fraction ~ mean phi_sst = 0.15)\n"
    one_c s_phase two_c;
  let h = Cellpop.Dna_content.histogram (Rng.create 2401) async in
  let density = Stats.histogram_density h in
  let mass lo hi =
    let acc = ref 0.0 in
    Array.iteri
      (fun i d ->
        let c = (h.Stats.edges.(i) +. h.Stats.edges.(i + 1)) /. 2.0 in
        if c >= lo && c < hi then acc := !acc +. (d *. (h.Stats.edges.(i + 1) -. h.Stats.edges.(i))))
      density;
    !acc
  in
  Printf.printf "asynchronous histogram mass: <1.1C %.2f, 1.1-1.9C %.2f, >1.9C %.2f\n"
    (mass 0.5 1.1) (mass 1.1 1.9) (mass 1.9 2.5)

(* ------------------------------------------------------------------ *)
(* Extension: condition-dependent asynchrony (sec 1).                  *)
(* ------------------------------------------------------------------ *)

let ext_condition_transfer () =
  section "ext_condition_transfer (condition-dependent kernels, sec 1)";
  (* The same gene measured in two growth conditions: rich medium (150-min
     cycle) and minimal medium (180-min cycle, higher variability). The
     single-cell profile f(phi) is condition-invariant; the kernels are
     not. Deconvolving the minimal-medium data with the matched kernel
     recovers the same profile; using the rich-medium kernel does not. *)
  let profile = Biomodels.Ftsz.profile in
  let rich = Cellpop.Params.paper_2011 in
  let minimal =
    { Cellpop.Params.paper_2011 with Cellpop.Params.mean_cycle_minutes = 180.0; cv_cycle = 0.15 }
  in
  let times = Array.init 13 (fun i -> 18.0 *. float_of_int i) in
  let run ~data_params ~inversion =
    let config =
      { (base_config ~times) with
        Deconv.Pipeline.data_params;
        inversion_params = Some inversion;
        noise = Deconv.Noise.Gaussian_fraction 0.05;
        seed = 26;
      }
    in
    Deconv.Pipeline.run config ~profile
  in
  let matched = run ~data_params:minimal ~inversion:minimal in
  let mismatched = run ~data_params:minimal ~inversion:rich in
  let t =
    Dataio.Table.create
      ~title:"minimal-medium data (180-min cycle): matched vs rich-medium (150-min) kernel"
      ~headers:[ "kernel(0=matched,1=mismatched)"; "rmse"; "corr"; "delay_recovered" ]
  in
  let delay (r : Deconv.Pipeline.run) =
    if
      Biomodels.Ftsz.delay_visible ~phases:r.Deconv.Pipeline.phases
        ~values:r.Deconv.Pipeline.estimate.Deconv.Solver.profile ~threshold:0.06
    then 1.0
    else 0.0
  in
  Dataio.Table.add_row t
    [| 0.0; matched.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
       matched.Deconv.Pipeline.recovery.Deconv.Metrics.correlation; delay matched |];
  Dataio.Table.add_row t
    [| 1.0; mismatched.Deconv.Pipeline.recovery.Deconv.Metrics.rmse;
       mismatched.Deconv.Pipeline.recovery.Deconv.Metrics.correlation; delay mismatched |];
  Dataio.Table.output stdout t;
  Printf.printf
    "=> re-characterizing the asynchrony per condition (sec 1) is necessary and sufficient\n"

(* ------------------------------------------------------------------ *)
(* Extension: optimal measurement-schedule design.                     *)
(* ------------------------------------------------------------------ *)

let ext_schedule_design () =
  section "ext_schedule_design (D-optimal sampling times vs uniform)";
  let params = Cellpop.Params.paper_2011 in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  (* Candidate pool: every 5 minutes over three hours. *)
  let pool_times = Array.init 37 (fun i -> 5.0 *. float_of_int i) in
  let candidate =
    Deconv.Schedule.candidates params ~rng:(Rng.create 1700) ~n_cells:4000 ~times:pool_times
      ~n_phi:201 ~basis
  in
  let budget = 9 in
  let chosen = Deconv.Schedule.greedy candidate ~budget in
  let chosen_times = Deconv.Schedule.times_of candidate chosen in
  let uniform_rows = List.init budget (fun i -> i * 36 / (budget - 1)) in
  let uniform_times = Deconv.Schedule.times_of candidate uniform_rows in
  Printf.printf "budget %d samples\n  D-optimal times: %s\n  uniform times:   %s\n" budget
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") chosen_times)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") uniform_times)));
  Printf.printf "  log-det information: optimal %.2f vs uniform %.2f\n"
    (Deconv.Schedule.log_det_information candidate.Deconv.Schedule.design ~rows:chosen
       ~ridge:1e-8)
    (Deconv.Schedule.log_det_information candidate.Deconv.Schedule.design ~rows:uniform_rows
       ~ridge:1e-8);
  (* End-to-end payoff: deconvolution error with each schedule. *)
  let f1, _ = Lazy.force lv_profiles in
  let recover times seed =
    let config =
      { (base_config ~times) with
        Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
        seed;
      }
    in
    (Deconv.Pipeline.run config ~profile:f1).Deconv.Pipeline.recovery.Deconv.Metrics.rmse
  in
  let avg schedule =
    Vec.mean (Array.of_list (List.map (recover schedule) [ 21; 22; 23 ]))
  in
  let optimal_rmse = avg chosen_times and uniform_rmse = avg uniform_times in
  Printf.printf "  mean recovery rmse over 3 seeds: optimal %.4f vs uniform %.4f\n" optimal_rmse
    uniform_rmse

(* ------------------------------------------------------------------ *)
(* Extension: protein dynamics downstream of the deconvolved mRNA.     *)
(* ------------------------------------------------------------------ *)

let ext_protein () =
  section "ext_protein (predicting the protein profile from deconvolved mRNA)";
  let times = Dataio.Datasets.ftsz_measurement_times in
  let config =
    { (base_config ~times) with
      Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.05;
      seed = 5;
    }
  in
  let run = Deconv.Pipeline.run config ~profile:Biomodels.Ftsz.profile in
  let kinetics = { Biomodels.Protein.translation = 0.1; degradation = 0.03 } in
  let phases = run.Deconv.Pipeline.phases in
  let protein_of mrna_values =
    let mrna phi = Interp.linear_clamped ~x:phases ~y:mrna_values phi in
    Biomodels.Protein.steady_profile kinetics ~period:150.0 ~mrna ~phases
  in
  let protein_true = protein_of run.Deconv.Pipeline.truth in
  let protein_from_deconv = protein_of run.Deconv.Pipeline.estimate.Deconv.Solver.profile in
  let c = Deconv.Metrics.compare ~truth:protein_true ~estimate:protein_from_deconv in
  Printf.printf
    "FtsZ protein profile predicted from deconvolved vs true mRNA: %s\n"
    (Deconv.Metrics.to_string c);
  let mrna_peak = phases.(Vec.argmax run.Deconv.Pipeline.truth) in
  let protein_peak = phases.(Vec.argmax protein_true) in
  Printf.printf
    "mRNA peaks at phi %.2f, protein at phi %.2f (lag %.2f of a cycle: slow protein\n\
    \ turnover low-passes the transcript pulse)\n"
    mrna_peak protein_peak
    (Biomodels.Protein.phase_lag ~mrna_peak ~protein_peak);
  let t =
    Dataio.Table.create ~title:"mRNA and protein phase profiles (every 20th point)"
      ~headers:[ "phi"; "mrna_true"; "mrna_deconvolved"; "protein_predicted" ]
  in
  for j = 0 to Array.length phases - 1 do
    if j mod 20 = 0 then
      Dataio.Table.add_row t
        [| phases.(j); run.Deconv.Pipeline.truth.(j);
           run.Deconv.Pipeline.estimate.Deconv.Solver.profile.(j); protein_from_deconv.(j) |]
  done;
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: other oscillator families.                               *)
(* ------------------------------------------------------------------ *)

let ext_other_oscillators () =
  section "ext_other_oscillators (Goodwin and repressilator under deconvolution)";
  let t =
    Dataio.Table.create ~title:"recovery at 10% noise (GCV lambda)"
      ~headers:[ "model(0=goodwin,1=repressilator_m1,2=repressilator_m2)"; "corr"; "nrmse";
                 "peak_err" ]
  in
  let deconvolve_profile idx (phases, values) =
    let profile phi = Interp.linear_clamped ~x:phases ~y:values phi in
    let config =
      { (base_config ~times:lv_times) with
        Deconv.Pipeline.noise = Deconv.Noise.Gaussian_fraction 0.10;
        seed = 33;
      }
    in
    let run = Deconv.Pipeline.run config ~profile in
    let est = run.Deconv.Pipeline.estimate.Deconv.Solver.profile in
    let peak_true = run.Deconv.Pipeline.phases.(Vec.argmax run.Deconv.Pipeline.truth) in
    let peak_est = run.Deconv.Pipeline.phases.(Vec.argmax est) in
    Dataio.Table.add_row t
      [| idx; run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation;
         run.Deconv.Pipeline.recovery.Deconv.Metrics.nrmse;
         Float.abs (peak_est -. peak_true) |]
  in
  deconvolve_profile 0.0
    (Biomodels.Goodwin.phase_profile Biomodels.Goodwin.default_params
       ~x0:Biomodels.Goodwin.default_x0 ~n_phi:400);
  deconvolve_profile 1.0
    (Biomodels.Repressilator.phase_profile ~species:0 Biomodels.Repressilator.default_params
       ~x0:Biomodels.Repressilator.default_x0 ~n_phi:400);
  deconvolve_profile 2.0
    (Biomodels.Repressilator.phase_profile ~species:1 Biomodels.Repressilator.default_params
       ~x0:Biomodels.Repressilator.default_x0 ~n_phi:400);
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Extension: Monte-Carlo recovery study over random profiles.         *)
(* ------------------------------------------------------------------ *)

let ext_recovery_study () =
  section "ext_recovery_study (recovery distribution over random single-cell profiles)";
  let t =
    Dataio.Table.create ~title:"recovery distribution (20 random profiles per condition)"
      ~headers:[ "noise_pct"; "median_rmse"; "median_corr"; "worst_corr"; "pct_above_0.9" ]
  in
  List.iter
    (fun level ->
      let noise =
        if Float.equal level 0.0 then Deconv.Noise.No_noise else Deconv.Noise.Gaussian_fraction level
      in
      let config =
        { (base_config ~times:lv_times) with
          Deconv.Pipeline.noise;
          n_cells_kernel = 2000;
          n_cells_data = 2000;
          seed = 19;
        }
      in
      let comparisons =
        Deconv.Study.recovery_distribution ~runs:20 config ~rng:(Rng.create 1800)
      in
      let s = Deconv.Study.summarize comparisons in
      Dataio.Table.add_row t
        [| 100.0 *. level; s.Deconv.Study.median_rmse; s.Deconv.Study.median_correlation;
           s.Deconv.Study.worst_correlation; 100.0 *. s.Deconv.Study.fraction_above_09 |])
    [ 0.0; 0.10 ];
  Dataio.Table.output stdout t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the computational kernels.             *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro (bechamel kernels)";
  let open Bechamel in
  let open Toolkit in
  let params = Cellpop.Params.paper_2011 in
  let times = lv_times in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 77) ~n_cells:2000 ~times
      ~n_phi:101
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  let f1, _ = Lazy.force lv_profiles in
  let data = Deconv.Forward.apply_fn kernel f1 in
  let problem =
    Deconv.Problem.create ~kernel ~basis ~measurements:data ~params ()
  in
  let spd =
    let a = Mat.init 40 40 (fun i j -> if i = j then 2.0 else 1.0 /. (1.0 +. Float.abs (float_of_int (i - j)))) in
    Mat.add a (Mat.scale 40.0 (Mat.identity 40))
  in
  let rhs = Array.init 40 (fun i -> Float.sin (float_of_int i)) in
  let tests =
    [
      (* One Test.make per reproduced figure: the dominating computation of
         each experiment, so regressions in any figure's runtime show up. *)
      Test.make ~name:"fig1_sample_phase_model"
        (Staged.stage (fun () ->
             let rng = Rng.create 1 in
             for _ = 1 to 1000 do
               ignore (Cellpop.Cell.draw_phi_sst params rng)
             done));
      (* A single forward application sits near the timer's noise floor;
         10 iterations behind Sys.opaque_identity lift the fixture into a
         clean linear fit. One run is 10 applications, hence the name. *)
      Test.make ~name:"fig2_forward_model_x10"
        (Staged.stage (fun () ->
             for _ = 1 to 10 do
               ignore (Sys.opaque_identity (Deconv.Forward.apply_fn kernel f1))
             done));
      Test.make ~name:"fig3_constrained_solve"
        (Staged.stage (fun () -> ignore (Deconv.Solver.solve ~lambda:1e-4 problem)));
      Test.make ~name:"fig4_population_sim_500"
        (Staged.stage (fun () ->
             ignore
               (Cellpop.Population.simulate params ~rng:(Rng.create 3) ~n0:500
                  ~times:[| 0.0; 75.0; 150.0 |])));
      Test.make ~name:"fig5_kernel_estimate_500"
        (Staged.stage (fun () ->
             ignore
               (Cellpop.Kernel.estimate params ~rng:(Rng.create 4) ~n_cells:500 ~times
                  ~n_phi:101)));
      (* Cold path: every run pays the Demmler-Reinsch factorization plus
         7 O(n) candidate evaluations (before the spectral layer this was
         7 full Ridge solves). *)
      Test.make ~name:"gcv_lambda_scan"
        (Staged.stage (fun () ->
             let lambdas = Optimize.Cross_validation.log_lambda_grid ~lo:(-6.0) ~hi:0.0 ~count:7 in
             ignore (Deconv.Lambda.gcv problem ~lambdas)));
      (* Warm path: the factorization is formed outside the timed region,
         so this is the marginal per-gene cost of the λ sweep inside a
         batch where all genes share one kernel. The body is microseconds,
         so loop 10x behind Sys.opaque_identity for a stable OLS fit. *)
      Test.make ~name:"lambda_select_spectral"
        (Staged.stage
           (let spectral = Deconv.Problem.factorize problem in
            let lambdas =
              Optimize.Cross_validation.log_lambda_grid ~lo:(-6.0) ~hi:0.0 ~count:7
            in
            fun () ->
              for _ = 1 to 10 do
                ignore (Sys.opaque_identity (Deconv.Lambda.gcv ~spectral problem ~lambdas))
              done));
      Test.make ~name:"spline_penalty_12"
        (Staged.stage (fun () -> ignore (Spline.Penalty.second_derivative basis)));
      Test.make ~name:"linalg_cholesky_40"
        (Staged.stage (fun () ->
             ignore (Linalg.cholesky_solve (Linalg.cholesky_factor spd) rhs)));
      Test.make ~name:"rk45_lv_one_period"
        (Staged.stage (fun () ->
             ignore
               (Biomodels.Lotka_volterra.simulate Biomodels.Lotka_volterra.default_params
                  ~x0:Biomodels.Lotka_volterra.default_x0 ~times:[| 0.0; 150.0 |])));
      Test.make ~name:"gillespie_lv_one_period"
        (Staged.stage (fun () ->
             let net =
               Stochastic.Networks.lotka_volterra ~a:0.0456 ~b:0.0091 ~c:0.038 ~d:0.0456
                 ~volume:100.0
             in
             ignore
               (Stochastic.Gillespie.direct net ~rng:(Rng.create 5) ~x0:[| 35; 500 |] ~t0:0.0
                  ~t1:150.0)));
      Test.make ~name:"calibrate_objective_eval"
        (Staged.stage (fun () ->
             ignore
               (Cellpop.Calibrate.objective ~base:params
                  ~boundaries:Cellpop.Celltype.mid_boundaries ~n_cells:1000 ~seed:7
                  Cellpop.Calibrate.judd params)));
      Test.make ~name:"schedule_greedy_37c_6"
        (Staged.stage
           (let candidate =
              Deconv.Schedule.candidates params ~rng:(Rng.create 6) ~n_cells:500
                ~times:(Array.init 37 (fun i -> 5.0 *. float_of_int i))
                ~n_phi:101 ~basis
            in
            fun () -> ignore (Deconv.Schedule.greedy candidate ~budget:6)));
      (* Guard on the observability layer: with no sink installed a span is
         one branch + closure call, and a disabled counter, resource
         sample or progress update is one branch. If any climbs to
         microseconds, instrumentation has leaked real work into the hot
         paths. The bodies are nanosecond-scale, so each run loops 10000
         times (behind Sys.opaque_identity, or the loop folds away) to
         lift the fixture well above timer noise — at 1000 iterations the
         linear fit was unusable (r^2 ~ 0.6). *)
      Test.make ~name:"obs_span_disabled"
        (Staged.stage (fun () ->
             for _ = 1 to 10000 do
               ignore
                 (Sys.opaque_identity
                    (Obs.Span.with_ "bench.noop" (fun sp -> Obs.Span.set_int sp "i" 0)))
             done));
      Test.make ~name:"obs_metrics_disabled"
        (Staged.stage (fun () ->
             for i = 1 to 10000 do
               Obs.Metrics.incr "bench.noop";
               ignore (Sys.opaque_identity i)
             done));
      Test.make ~name:"obs_sampler_tick_disabled"
        (Staged.stage (fun () ->
             for i = 1 to 10000 do
               Obs.Resource.sample ();
               ignore (Sys.opaque_identity i)
             done));
      (* The diag path with no sink: Obs.Diag.enabled is the branch every
         quality-statistic emitter hoists its work behind, so this is the
         cost solve_robust/Lambda/Qp pay per solve when tracing is off. *)
      Test.make ~name:"obs_diag_disabled"
        (Staged.stage (fun () ->
             for i = 1 to 10000 do
               if Obs.Diag.enabled () then
                 Obs.Diag.emit (Obs.Diag.make ~stage:"bench" ~values:[ ("i", 0.0) ] ());
               ignore (Sys.opaque_identity i)
             done));
      (* One branch per call leaves even 10000 iterations inside timer
         noise; 50000 brings the fit back above the r^2 gate. *)
      Test.make ~name:"obs_progress_update_disabled"
        (Staged.stage (fun () ->
             for i = 1 to 50000 do
               Obs.Progress.record_into None ~ok:true ();
               ignore (Sys.opaque_identity i)
             done));
      (* Dispatch cost of the domain pool: 16 chunks of trivial work. The
         default pool is forced into existence before the suite (below) so
         worker spawning never lands inside the timed region. *)
      Test.make ~name:"parallel_for_overhead"
        (Staged.stage (fun () ->
             Parallel.parallel_for ~chunk:64 ~n:1024 (fun ~lo ~hi ->
                 let acc = ref 0.0 in
                 for i = lo to hi - 1 do
                   acc := !acc +. float_of_int i
                 done;
                 ignore !acc)));
      (* The fault-isolation wrapper's overhead on top of parallel_map:
         same schedule, every slot wrapped in a per-index capture. *)
      Test.make ~name:"parallel_map_result_overhead"
        (Staged.stage (fun () ->
             let (_ : (float, exn) result array) =
               Parallel.parallel_map_result ~chunk:64 ~n:1024 float_of_int
             in
             ()));
      (* Checkpoint journal entry: hex-float serialize + parse round-trip,
         the per-gene cost of --checkpoint/--resume beyond the solve. *)
      Test.make ~name:"checkpoint_entry_roundtrip"
        (Staged.stage
           (let entry =
              {
                Deconv.Checkpoint.gene = 0;
                key = "0123456789abcdef";
                outcome =
                  Ok
                    {
                      Deconv.Solver.alpha = Array.init 12 (fun i -> sin (float_of_int i));
                      profile = Array.init 101 (fun i -> cos (float_of_int i));
                      fitted = Array.init 13 float_of_int;
                      lambda = 1.234e-4;
                      cost = 0.5678;
                      data_misfit = 0.1234;
                      roughness = 42.0;
                      active_positivity = 3;
                      qp_iterations = 17;
                    };
              }
            in
            fun () ->
              ignore (Deconv.Checkpoint.entry_of_line (Deconv.Checkpoint.entry_json entry))));
      (* The whole-program checker on a synthetic 40-module corpus: a
         40-deep cross-file call chain (worst case for the effect
         fixpoint) capped by a Parallel fan-out, so parse, graph build,
         propagation and the R10/R11 root scans are all on the clock.
         Synthetic sources keep the workload identical regardless of the
         working directory or repository drift. *)
      Test.make ~name:"lint_check"
        (Staged.stage
           (let sources =
              List.init 40 (fun i ->
                  let body =
                    if i = 0 then "let f00 x = if x < 0 then failwith \"neg\" else x"
                    else if i = 39 then
                      Printf.sprintf
                        "let f39 () = Parallel.parallel_map ~n:4 (fun x -> M38.f38 x)"
                    else
                      Printf.sprintf "let f%02d x = M%02d.f%02d (x + 1)" i (i - 1) (i - 1)
                  in
                  (Printf.sprintf "lib/core/m%02d.ml" i, body))
            in
            fun () -> ignore (Analysis.Policy.check_sources sources)));
    ]
  in
  ignore (Parallel.default ());
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"deconv" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = ref [] in
  Hashtbl.iter (fun name _ -> names := name :: !names) results;
  List.iter
    (fun name ->
      let ns =
        match Analyze.OLS.estimates (Hashtbl.find results name) with
        | Some (v :: _) -> v
        | _ -> Float.nan
      in
      Printf.printf "  %-40s %12.0f ns/run\n" name ns)
    (List.sort compare !names)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1_phase_model", fig1_phase_model);
    ("fig2_lv_noiseless", fig2_lv_noiseless);
    ("fig3_lv_noisy", fig3_lv_noisy);
    ("fig4_cell_types", fig4_cell_types);
    ("fig5_ftsz", fig5_ftsz);
    ("abl_volume_model", abl_volume_model);
    ("abl_constraints", abl_constraints);
    ("abl_kernel_estimator", abl_kernel_estimator);
    ("abl_basis", abl_basis);
    ("ext_growth", ext_growth);
    ("ext_noise_sweep", ext_noise_sweep);
    ("ext_lambda_selection", ext_lambda_selection);
    ("ext_param_estimation", ext_param_estimation);
    ("ext_intrinsic_noise", ext_intrinsic_noise);
    ("ext_identifiability", ext_identifiability);
    ("ext_synchrony", ext_synchrony);
    ("ext_baseline_rl", ext_baseline_rl);
    ("ext_bootstrap", ext_bootstrap);
    ("ext_regulon", ext_regulon);
    ("abl_representation", abl_representation);
    ("ext_kernel_budget", ext_kernel_budget);
    ("ext_calibration", ext_calibration);
    ("ext_dna_content", ext_dna_content);
    ("ext_condition_transfer", ext_condition_transfer);
    ("ext_schedule_design", ext_schedule_design);
    ("ext_protein", ext_protein);
    ("ext_other_oscillators", ext_other_oscillators);
    ("ext_recovery_study", ext_recovery_study);
    ("micro", micro);
  ]

let () =
  let argv = match Array.to_list Sys.argv with [] -> [] | _exe :: args -> args in
  let to_run =
    if argv = [] then sections else List.filter (fun (name, _) -> List.mem name argv) sections
  in
  if to_run = [] then begin
    Printf.eprintf "unknown section(s); available:\n";
    List.iter (fun (name, _) -> Printf.eprintf "  %s\n" name) sections;
    exit 1
  end;
  List.iter (fun (_, f) -> f ()) to_run;
  print_newline ()
