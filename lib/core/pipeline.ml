open Numerics

type forward_mode = Same_kernel | Independent_kernel | Monte_carlo

type selection = [ `Gcv | `Kfold of int | `Lcurve | `Fixed of float ]

type config = {
  data_params : Cellpop.Params.t;
  inversion_params : Cellpop.Params.t option;
  n_cells_kernel : int;
  n_cells_data : int;
  n_phi : int;
  times : Vec.t;
  num_knots : int;
  noise : Noise.model;
  selection : selection;
  use_positivity : bool;
  use_conservation : bool;
  use_rate_continuity : bool;
  forward_mode : forward_mode;
  seed : int;
  measurement_fault : Vec.t Robust.Fault.t option;
}

(* Phase bins averaged per kernel row before normalization. *)
let kernel_smooth_window = 5

let default_config ~times =
  {
    data_params = Cellpop.Params.paper_2011;
    inversion_params = None;
    n_cells_kernel = 4000;
    n_cells_data = 4000;
    n_phi = 201;
    times;
    num_knots = 12;
    noise = Noise.No_noise;
    selection = `Gcv;
    use_positivity = true;
    use_conservation = true;
    use_rate_continuity = true;
    forward_mode = Monte_carlo;
    seed = 1;
    measurement_fault = None;
  }

type run = {
  config : config;
  kernel : Cellpop.Kernel.t;
  phases : Vec.t;
  truth : Vec.t;
  clean : Vec.t;
  noisy : Vec.t;
  sigmas : Vec.t;
  problem : Problem.t;
  lambda : float;
  estimate : Solver.estimate;
  report : Robust.Report.t;
  recovery : Metrics.comparison;
}

let run config ~profile =
  Obs.Span.with_ "pipeline.run" @@ fun pipeline_span ->
  Obs.Span.set_int pipeline_span "seed" config.seed;
  Obs.Span.set_int pipeline_span "n_phi" config.n_phi;
  Obs.Span.set_int pipeline_span "num_knots" config.num_knots;
  let inversion_params =
    match config.inversion_params with Some p -> p | None -> config.data_params
  in
  let root = Rng.create config.seed in
  let rng_kernel = Rng.split root in
  let rng_data = Rng.split root in
  let rng_noise = Rng.split root in
  let rng_cv = Rng.split root in
  let rng_fault = Rng.split root in
  let kernel =
    Obs.Span.with_ "pipeline.kernel" (fun _ ->
        Cellpop.Kernel.estimate ~smooth_window:kernel_smooth_window inversion_params
          ~rng:rng_kernel ~n_cells:config.n_cells_kernel ~times:config.times
          ~n_phi:config.n_phi)
  in
  let clean =
    Obs.Span.with_ "pipeline.forward" @@ fun _ ->
    match config.forward_mode with
    | Same_kernel -> Forward.apply_fn kernel profile
    | Independent_kernel ->
      let data_kernel =
        Cellpop.Kernel.estimate ~smooth_window:kernel_smooth_window config.data_params
          ~rng:rng_data ~n_cells:config.n_cells_data ~times:config.times ~n_phi:config.n_phi
      in
      Forward.apply_fn data_kernel profile
    | Monte_carlo ->
      let snapshots =
        Cellpop.Population.simulate config.data_params ~rng:rng_data ~n0:config.n_cells_data
          ~times:config.times
      in
      Array.map
        (Cellpop.Population.mean_signal config.data_params (fun ~phi -> profile phi))
        snapshots
  in
  let noisy, sigmas = Noise.apply config.noise rng_noise clean in
  let noisy =
    match config.measurement_fault with
    | None -> noisy
    | Some fault -> Robust.Fault.apply fault rng_fault noisy
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:config.num_knots in
  let problem =
    Problem.create ~use_positivity:config.use_positivity
      ~use_conservation:config.use_conservation
      ~use_rate_continuity:config.use_rate_continuity ~sigmas ~kernel ~basis ~measurements:noisy
      ~params:inversion_params ()
  in
  (* λ selection runs on the repaired copy: a single NaN measurement would
     otherwise poison every candidate score. If selection still fails
     (typed Robust error), fall back to the solver's default λ. *)
  let lambda =
    Obs.Span.with_ "pipeline.lambda" @@ fun sp ->
    let repaired, _ = Solver.repair_problem problem in
    match Lambda.select_result repaired ~method_:config.selection ~rng:rng_cv () with
    | Ok lambda -> lambda
    | Error _ ->
      Obs.Span.set_bool sp "fallback" true;
      1e-4
  in
  Obs.Span.set_float pipeline_span "lambda" lambda;
  let estimate, report =
    Obs.Span.with_ "pipeline.solve" @@ fun _ ->
    match Solver.solve_robust ~lambda problem with
    | Ok (estimate, report) -> (estimate, report)
    | Error e -> Robust.Error.raise_error e
  in
  let phases = kernel.Cellpop.Kernel.phases in
  let truth = Array.map profile phases in
  let recovery = Metrics.compare ~truth ~estimate:estimate.Solver.profile in
  Obs.Span.set_float pipeline_span "recovery_rmse" recovery.Metrics.rmse;
  Obs.Span.set_int pipeline_span "degradation" report.Robust.Report.degradation;
  {
    config;
    kernel;
    phases;
    truth;
    clean;
    noisy;
    sigmas;
    problem;
    lambda;
    estimate;
    report;
    recovery;
  }

let deconvolved_vs_minutes r =
  let t_mean =
    (match r.config.inversion_params with Some p -> p | None -> r.config.data_params)
      .Cellpop.Params.mean_cycle_minutes
  in
  (Array.map (fun phi -> phi *. t_mean) r.phases, Array.copy r.estimate.Solver.profile)
