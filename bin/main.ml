(* deconv-cli: command-line interface to the deconvolution library.

   Subcommands:
     simulate        generate population-level data from a built-in single-cell profile
     deconvolve      estimate a single-cell profile from a measurements CSV
     batch           survivable genome-scale batch with fault isolation, budgets and
                     crash-safe --checkpoint/--resume (exit 3 on contained failures)
     chaos           fault-injection harness asserting the batch isolation invariants
     kernel          dump the population kernel Q(phi, t) as CSV
     celltypes       print simulated cell-type fractions over time
     identifiability singular spectrum of the forward operator for a schedule
     schedule        D-optimal measurement times for a sampling budget
     calibrate       fit the asynchrony model to a cell-type fraction time course
     trace           summarize / convergence-plot / utilization / export / selfcheck /
                     diff traces
     diagnose        per-solve quality report cards from a trace

   Performance is measured by perfbench/ (gated by BENCHMARK.json);
   `trace diff` compares two traces of one workload.
*)

open Numerics
open Cmdliner

(* ---------------- shared arguments ---------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (deterministic).")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the parallel sections (population simulation, lambda \
                 sweeps, bootstrap). 0 = auto: $(b,DECONV_JOBS) if set, else the machine's \
                 recommended domain count. Results are bit-identical for every value; \
                 $(b,--jobs 1) runs the exact same schedule sequentially without spawning \
                 any domain.")

let apply_jobs jobs =
  if jobs > 0 then Parallel.set_jobs jobs
  else if jobs < 0 then begin
    Printf.eprintf "error: --jobs must be >= 1 (or 0 for auto), got %d\n" jobs;
    exit 1
  end

let cells_arg =
  Arg.(value & opt int 4000 & info [ "cells" ] ~docv:"N" ~doc:"Number of simulated founder cells.")

let phi_bins_arg =
  Arg.(value & opt int 201 & info [ "phi-bins" ] ~docv:"N" ~doc:"Number of phase bins.")

let knots_arg =
  Arg.(value & opt int 12 & info [ "knots" ] ~docv:"N" ~doc:"Natural-spline knots (basis size).")

let times_arg =
  let doc = "Measurement times in minutes, comma separated (default 0,15,...,180)." in
  Arg.(value & opt (some string) None & info [ "times" ] ~docv:"T1,T2,..." ~doc)

let parse_times = function
  | None -> Dataio.Datasets.lv_measurement_times
  | Some s ->
    let fields = String.split_on_char ',' s in
    Vec.of_list (List.map (fun f -> float_of_string (String.trim f)) fields)

let mu_sst_arg =
  Arg.(value & opt float 0.15
       & info [ "mu-sst" ] ~docv:"PHI" ~doc:"Mean SW->ST transition phase (paper 2011: 0.15).")

let cycle_arg =
  Arg.(value & opt float 150.0
       & info [ "cycle" ] ~docv:"MIN" ~doc:"Mean cell cycle time in minutes.")

let linear_volume_arg =
  Arg.(value & flag
       & info [ "linear-volume" ] ~doc:"Use the 2009 linear volume model instead of eq. 11.")

let params_of mu_sst cycle linear =
  {
    Cellpop.Params.paper_2011 with
    Cellpop.Params.mu_sst;
    mean_cycle_minutes = cycle;
    volume_model = (if linear then Cellpop.Params.Linear else Cellpop.Params.Smooth);
  }

let profile_arg =
  let doc =
    "Built-in single-cell profile: lv-x1, lv-x2, ftsz, goodwin, pulse or constant."
  in
  Arg.(value & opt string "pulse" & info [ "profile" ] ~docv:"NAME" ~doc)

let resolve_profile = function
  | "pulse" -> Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()
  | "constant" -> Biomodels.Gene_profile.constant 1.0
  | "ftsz" -> Biomodels.Ftsz.profile
  | "goodwin" ->
    let phases, values =
      Biomodels.Goodwin.phase_profile Biomodels.Goodwin.default_params
        ~x0:Biomodels.Goodwin.default_x0 ~n_phi:400
    in
    fun phi -> Interp.linear_clamped ~x:phases ~y:values phi
  | ("lv-x1" | "lv-x2") as which ->
    let phases, f1, f2 =
      Biomodels.Lotka_volterra.phase_profiles Biomodels.Lotka_volterra.default_params
        ~x0:Biomodels.Lotka_volterra.default_x0 ~n_phi:400
    in
    let values = if which = "lv-x1" then f1 else f2 in
    fun phi -> Interp.linear_clamped ~x:phases ~y:values phi
  | other -> failwith (Printf.sprintf "unknown profile %S" other)

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV path.")

let noise_arg =
  Arg.(value & opt float 0.0
       & info [ "noise" ] ~docv:"FRAC" ~doc:"Gaussian noise level as a fraction of magnitude.")

(* ---------------- simulate ---------------- *)

let simulate jobs profile_name times seed cells phi_bins mu_sst cycle linear noise output =
  apply_jobs jobs;
  let times = parse_times times in
  let params = params_of mu_sst cycle linear in
  let profile = resolve_profile profile_name in
  let rng = Rng.create seed in
  let snapshots = Cellpop.Population.simulate params ~rng:(Rng.split rng) ~n0:cells ~times in
  let clean =
    Array.map (Cellpop.Population.mean_signal params (fun ~phi -> profile phi)) snapshots
  in
  let noise_model =
    if noise > 0.0 then Deconv.Noise.Gaussian_fraction noise else Deconv.Noise.No_noise
  in
  let noisy, sigmas = Deconv.Noise.apply noise_model (Rng.split rng) clean in
  ignore phi_bins;
  (match output with
  | Some path ->
    Dataio.Csv.write_columns ~path ~header:[ "minutes"; "g"; "sigma" ]
      ~columns:[ times; noisy; sigmas ];
    Printf.printf "wrote %d measurements to %s\n" (Array.length times) path
  | None ->
    let t = Dataio.Table.create ~title:"simulated population data"
        ~headers:[ "minutes"; "g"; "sigma" ] in
    Dataio.Table.add_rows t [ times; noisy; sigmas ];
    Dataio.Table.output stdout t);
  0

let simulate_cmd =
  let term =
    Term.(
      const simulate $ jobs_arg $ profile_arg $ times_arg $ seed_arg $ cells_arg $ phi_bins_arg
      $ mu_sst_arg $ cycle_arg $ linear_volume_arg $ noise_arg $ output_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Generate population-level data from a single-cell profile.")
    term

(* ---------------- deconvolve ---------------- *)

let lambda_arg =
  Arg.(value & opt (some float) None
       & info [ "lambda" ] ~docv:"L" ~doc:"Fixed smoothing parameter (default: select by GCV).")

let no_positivity = Arg.(value & flag & info [ "no-positivity" ] ~doc:"Drop the positivity constraint.")
let no_conservation = Arg.(value & flag & info [ "no-conservation" ] ~doc:"Drop division conservation.")
let no_rate = Arg.(value & flag & info [ "no-rate-continuity" ] ~doc:"Drop rate continuity (sec 3.2).")

let bootstrap_arg =
  Arg.(value & opt int 0
       & info [ "bootstrap" ] ~docv:"B"
           ~doc:"Number of residual-bootstrap replicates for 90% bands (0 = off, otherwise at \
                 least 10).")

let input_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"MEASUREMENTS.CSV" ~doc:"CSV with columns minutes,g[,sigma].")

let kernel_file_arg =
  Arg.(value & opt (some file) None
       & info [ "kernel" ] ~docv:"FILE"
           ~doc:"Reuse a kernel saved with `kernel --save` instead of simulating one.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL observability trace (spans + metrics) to $(docv); render it \
                 with `deconv-cli trace summarize $(docv)`.")

let metrics_flag_arg =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Print the counter/gauge/histogram summary after the run.")

(* lib/parallel is zero-dependency by design and cannot see the obs layer;
   chunk telemetry is injected from here instead. One sample per executed
   chunk, emitted through the mutex-serialized sink — safe from worker
   domains, and a no-op branch when tracing is off. *)
let chunk_probe =
  {
    Parallel.Probe.now = Obs.Clock.now;
    record =
      (fun ~domain ~lo ~hi ~start_s ~stop_s ->
        Obs.Export.emit
          (Obs.Export.Sample
             {
               Obs.Export.s_kind = "chunk";
               t_s = stop_s;
               values =
                 [
                   ("domain", float_of_int domain);
                   ("lo", float_of_int lo);
                   ("hi", float_of_int hi);
                   ("start", start_s);
                   ("stop", stop_s);
                 ];
             }));
  }

let read_trace_file file =
  let ic = open_in file in
  let events = Obs.Export.read_jsonl ic in
  close_in ic;
  events

let run_deconvolve input seed cells phi_bins knots mu_sst cycle linear lambda no_pos no_cons
    no_rate bootstrap kernel_file output =
  Obs.Span.with_ "deconvolve" @@ fun cli_span ->
  Obs.Span.set_str cli_span "input" input;
  let times, g, sigmas =
    match Dataio.Datasets.load_measurements ~path:input with
    | Ok r -> r
    | Error e ->
      Printf.eprintf "error: %s: %s\n" input (Dataio.Csv.error_to_string e);
      exit 1
  in
  let params = params_of mu_sst cycle linear in
  let rng = Rng.create seed in
  let kernel =
    match kernel_file with
    | Some path ->
      let k = Cellpop.Kernel.load ~path in
      let kt = k.Cellpop.Kernel.times in
      if Array.length kt <> Array.length times then
        failwith "saved kernel has a different number of time points than the measurements";
      Array.iteri
        (fun i t ->
          if Float.abs (t -. kt.(i)) > 1e-6 then
            failwith
              (Printf.sprintf "saved kernel time %g does not match measurement time %g" kt.(i) t))
        times;
      k
    | None ->
      Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.split rng) ~n_cells:cells ~times
        ~n_phi:phi_bins
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
  let problem =
    Deconv.Problem.create ~use_positivity:(not no_pos) ~use_conservation:(not no_cons)
      ~use_rate_continuity:(not no_rate) ?sigmas ~kernel ~basis ~measurements:g ~params ()
  in
  (* Lambda selection, adequacy diagnostics and bootstrap all run on the
     repaired copy: a single NaN measurement or zero sigma would poison
     every candidate score and every weighted residual. The original
     problem goes to solve_robust so its report records the repairs. *)
  let repaired_problem, _ = Deconv.Solver.repair_problem problem in
  let lambda =
    match lambda with
    | Some l -> l
    | None -> (
      match Deconv.Lambda.select_result repaired_problem ~method_:`Gcv ~rng:(Rng.split rng) () with
      | Ok l -> l
      | Error e ->
        Printf.eprintf "warning: lambda selection failed (%s); using lambda = 1e-4\n"
          (Robust.Error.to_string e);
        1e-4)
  in
  let estimate, robust_report =
    match Deconv.Solver.solve_robust ~lambda problem with
    | Ok (estimate, report) -> (estimate, report)
    | Error e ->
      Printf.eprintf "error: deconvolution failed: %s\n" (Robust.Error.to_string e);
      exit 1
  in
  Printf.printf "lambda = %.4g, weighted misfit = %.4g, roughness = %.4g, active bounds = %d\n"
    lambda estimate.Deconv.Solver.data_misfit estimate.Deconv.Solver.roughness
    estimate.Deconv.Solver.active_positivity;
  if robust_report.Robust.Report.degradation > 0 || robust_report.Robust.Report.repairs <> []
  then Printf.printf "robustness: %s\n" (Robust.Report.to_string robust_report);
  (if sigmas <> None then begin
     (* With real per-measurement sigmas the lack-of-fit test is meaningful. *)
     let report = Deconv.Diagnostics.analyze repaired_problem estimate in
     Printf.printf "model adequacy: %s -> %s\n"
       (Deconv.Diagnostics.to_string report)
       (if Float.is_nan report.Deconv.Diagnostics.p_value then
          "unavailable (no effective dof: the penalized normal matrix is not positive \
           definite at this lambda)"
        else if Deconv.Diagnostics.adequate report then "OK"
        else "REJECTED (check kernel parameters and sigma column)")
   end);
  let minutes = Array.map (fun phi -> phi *. cycle) kernel.Cellpop.Kernel.phases in
  let bands =
    if bootstrap <> 0 then begin
      let b =
        match
          Deconv.Bootstrap.residual ~replicates:bootstrap ~level:0.9 repaired_problem estimate
            ~rng:(Rng.split rng)
        with
        | b -> b
        | exception Robust.Error.Error e ->
          Printf.eprintf "error: bootstrap: %s\n" (Robust.Error.to_string e);
          exit 1
      in
      Printf.printf "bootstrap (%d replicates): mean 90%% band width %.4g\n" bootstrap
        (Vec.mean (Deconv.Bootstrap.width b));
      Some b
    end
    else None
  in
  (match output with
  | Some path ->
    let header, columns =
      match bands with
      | None ->
        ( [ "phi"; "minutes"; "f" ],
          [ kernel.Cellpop.Kernel.phases; minutes; estimate.Deconv.Solver.profile ] )
      | Some b ->
        ( [ "phi"; "minutes"; "f"; "lower90"; "upper90" ],
          [ kernel.Cellpop.Kernel.phases; minutes; estimate.Deconv.Solver.profile;
            b.Deconv.Bootstrap.lower; b.Deconv.Bootstrap.upper ] )
    in
    Dataio.Csv.write_columns ~path ~header ~columns;
    Printf.printf "wrote deconvolved profile (%d points) to %s\n"
      (Array.length kernel.Cellpop.Kernel.phases) path
  | None ->
    Dataio.Ascii_plot.output stdout ~title:"deconvolved single-cell profile"
      ([
         { Dataio.Ascii_plot.label = "f(phi), minutes axis"; glyph = 'o'; xs = minutes;
           ys = estimate.Deconv.Solver.profile };
       ]
      @
      match bands with
      | None -> []
      | Some b ->
        [
          { Dataio.Ascii_plot.label = "90% lower"; glyph = '.'; xs = minutes;
            ys = b.Deconv.Bootstrap.lower };
          { Dataio.Ascii_plot.label = "90% upper"; glyph = '\''; xs = minutes;
            ys = b.Deconv.Bootstrap.upper };
        ]));
  0

let deconvolve jobs input seed cells phi_bins knots mu_sst cycle linear lambda no_pos no_cons
    no_rate bootstrap kernel_file trace metrics output =
  apply_jobs jobs;
  let trace_channel =
    match trace with
    | None -> None
    | Some path ->
      let oc = open_out path in
      Obs.Export.install (Obs.Export.jsonl oc);
      Some (path, oc)
  in
  if metrics || Option.is_some trace then Obs.Metrics.enable ();
  let code =
    run_deconvolve input seed cells phi_bins knots mu_sst cycle linear lambda no_pos no_cons
      no_rate bootstrap kernel_file output
  in
  (match trace_channel with
  | Some (path, oc) ->
    (* Append the metrics snapshot to the same stream, so a trace file is
       self-contained: spans first (in close order), metrics last. *)
    List.iter Obs.Export.emit (Obs.Metrics.events ());
    Obs.Export.uninstall ();
    close_out oc;
    Printf.printf "wrote observability trace to %s\n" path
  | None -> ());
  if metrics then Obs.Metrics.output stdout;
  code

let deconvolve_cmd =
  let term =
    Term.(
      const deconvolve $ jobs_arg $ input_arg $ seed_arg $ cells_arg $ phi_bins_arg $ knots_arg
      $ mu_sst_arg $ cycle_arg $ linear_volume_arg $ lambda_arg $ no_positivity $ no_conservation
      $ no_rate $ bootstrap_arg $ kernel_file_arg $ trace_arg $ metrics_flag_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "deconvolve"
       ~doc:"Estimate the single-cell expression profile behind a population time course.")
    term

(* ---------------- kernel ---------------- *)

let kernel_cmd =
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Save the kernel in the loadable format for `deconvolve --kernel`.")
  in
  let run jobs times seed cells phi_bins mu_sst cycle linear save output =
    apply_jobs jobs;
    let times = parse_times times in
    let params = params_of mu_sst cycle linear in
    let kernel =
      Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create seed) ~n_cells:cells
        ~times ~n_phi:phi_bins
    in
    (match save with
    | Some path ->
      Cellpop.Kernel.save kernel ~path;
      Printf.printf "saved reusable kernel to %s\n" path
    | None -> ());
    (match output with
    | Some path ->
      let header =
        "phi" :: List.map (fun t -> Printf.sprintf "t%g" t) (Array.to_list times)
      in
      let columns =
        kernel.Cellpop.Kernel.phases
        :: List.init (Array.length times) (fun m -> Cellpop.Kernel.row kernel m)
      in
      Dataio.Csv.write_columns ~path ~header ~columns;
      Printf.printf "wrote kernel (%d phases x %d times) to %s\n" phi_bins (Array.length times)
        path
    | None ->
      Printf.printf "kernel normalization error: %.2e\n" (Cellpop.Kernel.check_normalization kernel);
      Array.iteri
        (fun m t ->
          let row = Cellpop.Kernel.row kernel m in
          let mode = kernel.Cellpop.Kernel.phases.(Vec.argmax row) in
          Printf.printf "t = %6.1f min: mode of Q at phi = %.3f, max = %.3f\n" t mode
            (Vec.max row))
        times);
    0
  in
  let term =
    Term.(
      const run $ jobs_arg $ times_arg $ seed_arg $ cells_arg $ phi_bins_arg $ mu_sst_arg
      $ cycle_arg $ linear_volume_arg $ save_arg $ output_arg)
  in
  Cmd.v (Cmd.info "kernel" ~doc:"Estimate and inspect the population kernel Q(phi, t).") term

(* ---------------- celltypes ---------------- *)

let celltypes_cmd =
  let run jobs times seed cells mu_sst cycle linear =
    apply_jobs jobs;
    let times =
      match times with None -> Dataio.Datasets.judd_times | Some _ -> parse_times times
    in
    let params = params_of mu_sst cycle linear in
    let snapshots =
      Cellpop.Population.simulate params ~rng:(Rng.create seed) ~n0:cells ~times
    in
    let f = Cellpop.Celltype.fractions_over_time Cellpop.Celltype.mid_boundaries snapshots in
    let t =
      Dataio.Table.create ~title:"cell-type fractions (mid boundaries)"
        ~headers:[ "minutes"; "SW"; "STE"; "STEPD"; "STLPD" ]
    in
    Dataio.Table.add_rows t [ times; Mat.col f 0; Mat.col f 1; Mat.col f 2; Mat.col f 3 ];
    Dataio.Table.output stdout t;
    0
  in
  let term =
    Term.(
      const run $ jobs_arg $ times_arg $ seed_arg $ cells_arg $ mu_sst_arg $ cycle_arg
      $ linear_volume_arg)
  in
  Cmd.v (Cmd.info "celltypes" ~doc:"Simulate the cell-type distribution over time (fig 4).") term

(* ---------------- identifiability ---------------- *)

let identifiability_cmd =
  let run jobs times seed cells phi_bins knots mu_sst cycle linear =
    apply_jobs jobs;
    let times = parse_times times in
    let params = params_of mu_sst cycle linear in
    let kernel =
      Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create seed) ~n_cells:cells
        ~times ~n_phi:phi_bins
    in
    let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
    let report = Deconv.Identifiability.analyze kernel basis in
    Printf.printf "singular values: %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map (Printf.sprintf "%.3g") report.Deconv.Identifiability.singular_values)));
    Printf.printf "condition number: %.3g\n" report.Deconv.Identifiability.condition;
    List.iter
      (fun noise ->
        Printf.printf "identifiable modes at %.1f%% relative noise: %d\n" (100.0 *. noise)
          (Deconv.Identifiability.effective_rank report ~relative_noise:noise))
      [ 0.001; 0.01; 0.1 ];
    0
  in
  let term =
    Term.(
      const run $ jobs_arg $ times_arg $ seed_arg $ cells_arg $ phi_bins_arg $ knots_arg
      $ mu_sst_arg $ cycle_arg $ linear_volume_arg)
  in
  Cmd.v
    (Cmd.info "identifiability"
       ~doc:"Singular spectrum of the forward operator for a measurement schedule.")
    term

(* ---------------- schedule ---------------- *)

let schedule_cmd =
  let budget_arg =
    Arg.(value & opt int 9 & info [ "budget" ] ~docv:"N" ~doc:"Number of samples to place.")
  in
  let horizon_arg =
    Arg.(value & opt float 180.0 & info [ "horizon" ] ~docv:"MIN" ~doc:"Experiment length, minutes.")
  in
  let step_arg =
    Arg.(value & opt float 5.0 & info [ "step" ] ~docv:"MIN" ~doc:"Candidate-time spacing.")
  in
  let run jobs budget horizon step seed cells phi_bins knots mu_sst cycle linear =
    apply_jobs jobs;
    let params = params_of mu_sst cycle linear in
    let n_candidates = (int_of_float (horizon /. step)) + 1 in
    let pool = Array.init n_candidates (fun i -> step *. float_of_int i) in
    let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
    let candidate =
      Deconv.Schedule.candidates params ~rng:(Rng.create seed) ~n_cells:cells ~times:pool
        ~n_phi:phi_bins ~basis
    in
    let chosen = Deconv.Schedule.greedy candidate ~budget in
    let chosen_times = Deconv.Schedule.times_of candidate chosen in
    Printf.printf "D-optimal schedule (%d samples over %.0f minutes):\n  %s\n" budget horizon
      (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%g") chosen_times)));
    Printf.printf "log-det information: %.3f\n"
      (Deconv.Schedule.log_det_information candidate.Deconv.Schedule.design ~rows:chosen
         ~ridge:1e-8);
    0
  in
  let term =
    Term.(
      const run $ jobs_arg $ budget_arg $ horizon_arg $ step_arg $ seed_arg $ cells_arg
      $ phi_bins_arg $ knots_arg $ mu_sst_arg $ cycle_arg $ linear_volume_arg)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Choose D-optimal measurement times for a sampling budget.")
    term

(* ---------------- calibrate ---------------- *)

let calibrate_cmd =
  let input_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FRACTIONS.CSV"
             ~doc:"CSV with columns minutes,SW,STE,STEPD,STLPD (default: embedded Judd data).")
  in
  let run jobs input seed cells =
    apply_jobs jobs;
    let observation =
      match input with
      | None -> Cellpop.Calibrate.judd
      | Some path ->
        let _, columns =
          match Dataio.Csv.read_columns_result ~path with
          | Ok r -> r
          | Error e ->
            Printf.eprintf "error: %s: %s\n" path (Dataio.Csv.error_to_string e);
            exit 1
        in
        (match columns with
        | [ t; sw; ste; stepd; stlpd ] ->
          { Cellpop.Calibrate.times = t;
            fractions =
              Mat.init (Array.length t) 4 (fun i j ->
                  match j with 0 -> sw.(i) | 1 -> ste.(i) | 2 -> stepd.(i) | _ -> stlpd.(i)) }
        | cols ->
          Printf.eprintf "error: %s: expected 5 columns (minutes,SW,STE,STEPD,STLPD), found %d\n"
            path (List.length cols);
          exit 1)
    in
    let fitted =
      Cellpop.Calibrate.fit ~n_cells:cells ~seed ~base:Cellpop.Params.paper_2011
        ~boundaries:Cellpop.Celltype.mid_boundaries observation
    in
    let p = fitted.Cellpop.Calibrate.params in
    Printf.printf "fitted asynchrony parameters (%d simulator evaluations):\n"
      fitted.Cellpop.Calibrate.evaluations;
    Printf.printf "  mu_sst             = %.4f\n" p.Cellpop.Params.mu_sst;
    Printf.printf "  mean cycle time    = %.1f min\n" p.Cellpop.Params.mean_cycle_minutes;
    Printf.printf "  cycle-time CV      = %.4f\n" p.Cellpop.Params.cv_cycle;
    Printf.printf "  rms fraction error = %.4f\n" (sqrt fitted.Cellpop.Calibrate.objective_value);
    Printf.printf
      "use these with `deconvolve --mu-sst %.4f --cycle %.1f` for data from this culture\n"
      p.Cellpop.Params.mu_sst p.Cellpop.Params.mean_cycle_minutes;
    0
  in
  let term = Term.(const run $ jobs_arg $ input_arg $ seed_arg $ cells_arg) in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Fit the asynchrony model to a cell-type fraction time course.")
    term

(* ---------------- trace ---------------- *)

let trace_summarize_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.JSONL" ~doc:"Trace written by `deconvolve --trace`.")
  in
  let top_arg =
    Arg.(value & opt (some int) None
         & info [ "top" ] ~docv:"N"
             ~doc:"Also print the flat top-$(docv) span names by total wall time \
                   (call count, total and self time); 0 prints every name.")
  in
  let run file top =
    let ic = open_in file in
    let events = Obs.Export.read_jsonl ic in
    close_in ic;
    match events with
    | Ok events ->
      Obs.Export.output_summary stdout events;
      (match top with
      | Some n ->
        print_newline ();
        Obs.Export.output_top stdout ~top:n events
      | None -> ());
      0
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      1
  in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:"Render a JSONL trace as an aggregated span tree with a metrics table.")
    Term.(const run $ file_arg $ top_arg)

(* ---------------- trace convergence ---------------- *)

(* Per-iteration telemetry points grouped per enclosing solve span, plotted
   as residual-vs-iteration curves. The iteration count shown per solve is
   the point count, which the emitters keep equal to the solver's own
   [iterations] result. *)
let trace_convergence_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.JSONL" ~doc:"Trace written by `deconvolve --trace`.")
  in
  let series_arg =
    Arg.(value & opt (some string) None
         & info [ "series" ] ~docv:"NAME"
             ~doc:"Only plot this telemetry series (e.g. qp.iteration or rl.iteration).")
  in
  let run file only_series =
    let ic = open_in file in
    let events = Obs.Export.read_jsonl ic in
    close_in ic;
    match events with
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      1
    | Ok events ->
      let points =
        List.filter_map (function Obs.Export.Point p -> Some p | _ -> None) events
      in
      let points =
        match only_series with
        | None -> points
        | Some s -> List.filter (fun p -> String.equal p.Obs.Export.series s) points
      in
      let span_by_id id =
        List.find_map
          (function
            | Obs.Export.Span s when s.Obs.Export.id = id -> Some s
            | _ -> None)
          events
      in
      (* Group points by (series, enclosing span), preserving first-seen
         order so curves print in solve order. *)
      let groups = ref [] in
      List.iter
        (fun (p : Obs.Export.point) ->
          let key = (p.Obs.Export.series, p.Obs.Export.span_id) in
          match List.assoc_opt key !groups with
          | Some cell -> cell := p :: !cell
          | None -> groups := !groups @ [ (key, ref [ p ]) ])
        points;
      if !groups = [] then begin
        Printf.printf
          "no convergence telemetry in %s (record the trace with `deconvolve --trace`)\n" file;
        0
      end
      else begin
        List.iter
          (fun ((series, span_id), cell) ->
            let pts : Obs.Export.point list = List.rev !cell in
            (* The plotted quantity: residual-like field of the series. *)
            let value_key =
              let has k =
                match pts with
                | p :: _ -> List.mem_assoc k p.Obs.Export.values
                | [] -> false
              in
              if has "max_violation" then "max_violation"
              else if has "rel_change" then "rel_change"
              else
                match pts with
                | { Obs.Export.values = (k, _) :: _; _ } :: _ -> k
                | _ -> ""
            in
            let xs =
              Array.of_list (List.map (fun p -> float_of_int p.Obs.Export.iter) pts)
            in
            let ys =
              Array.of_list
                (List.map
                   (fun (p : Obs.Export.point) ->
                     let v =
                       match List.assoc_opt value_key p.Obs.Export.values with
                       | Some v -> v
                       | None -> Float.nan
                     in
                     (* An exactly feasible pass (max_violation 0) plots
                        at the rounding floor, not at 1e-300. *)
                     Float.log10 (Float.max 1e-16 v))
                   pts)
            in
            let context =
              match span_id with
              | None -> "(no enclosing span)"
              | Some id -> (
                match span_by_id id with
                | None -> Printf.sprintf "span %d" id
                | Some s ->
                  let status =
                    match List.assoc_opt "status" s.Obs.Export.attrs with
                    | Some (Obs.Export.Str st) -> ", " ^ st
                    | _ -> ""
                  in
                  Printf.sprintf "%s (span %d%s)" s.Obs.Export.name id status)
            in
            Printf.printf "%s %s — %d iterations\n" series context (List.length pts);
            Dataio.Ascii_plot.output stdout
              ~title:(Printf.sprintf "log10(%s) vs iteration" value_key)
              [ { Dataio.Ascii_plot.label = value_key; glyph = 'o'; xs; ys } ];
            (* Flag pathologies: a stalled solve, and non-monotone phases
               where the residual rose between consecutive iterations. *)
            let rises = ref 0 in
            Array.iteri
              (fun i y -> if i > 0 && y > ys.(i - 1) +. 1e-12 then incr rises)
              ys;
            if !rises > 0 then
              Printf.printf "  non-monotone: %s rose on %d of %d steps\n" value_key !rises
                (Array.length ys - 1);
            (match span_id with
            | Some id -> (
              match span_by_id id with
              | Some s
                when (match List.assoc_opt "status" s.Obs.Export.attrs with
                     | Some (Obs.Export.Str "stalled") -> true
                     | _ -> false) ->
                Printf.printf "  STALL: solver hit its iteration limit before converging\n"
              | _ -> ())
            | None -> ());
            let n = Array.length ys in
            if n >= 6 && ys.(n - 1) > ys.(n - 6) -. 0.01 then
              Printf.printf
                "  plateau: less than 0.01 decades of progress over the last 5 iterations\n";
            print_newline ())
          !groups;
        0
      end
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:
         "Plot per-solve convergence curves (QP max violation, RL relative change) from a \
          trace.")
    Term.(const run $ file_arg $ series_arg)

(* ---------------- trace utilization ---------------- *)

let trace_utilization_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.JSONL"
             ~doc:"Trace written by `batch --trace` (or any traced run at --jobs > 1).")
  in
  let run file =
    match read_trace_file file with
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      1
    | Ok events -> (
      match Obs.Utilization.of_events events with
      | Some report ->
        Obs.Utilization.output stdout report;
        0
      | None ->
        Printf.printf
          "no chunk telemetry in %s (record with `batch --trace FILE`; chunks are only \
           emitted while a probe is installed)\n"
          file;
        0)
  in
  Cmd.v
    (Cmd.info "utilization"
       ~doc:"Per-domain busy fractions and chunk-wall imbalance from a trace's chunk samples.")
    Term.(const run $ file_arg)

(* ---------------- trace export ---------------- *)

let trace_export_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.JSONL" ~doc:"Trace written by `--trace`.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("chrome", `Chrome) ]) `Chrome
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format. $(b,chrome): Chrome trace-event JSON — open the result at \
                   https://ui.perfetto.dev or chrome://tracing.")
  in
  let run file format output =
    match read_trace_file file with
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      1
    | Ok events -> (
      match format with
      | `Chrome -> (
        match output with
        | Some path ->
          let oc = open_out path in
          Obs.Chrome.output oc events;
          close_out oc;
          Printf.printf "wrote %d events as Chrome trace JSON to %s\n" (List.length events)
            path;
          0
        | None ->
          Obs.Chrome.output stdout events;
          0))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert a JSONL trace to another format (currently Chrome trace-event JSON, \
             openable in Perfetto).")
    Term.(const run $ file_arg $ format_arg $ output_arg)

let trace_selfcheck_cmd =
  let run () =
    let failures = ref [] in
    let check name ok = if not ok then failures := name :: !failures in
    (* 1. Serialization round-trip: to_json -> of_json -> to_json must be a
       fixed point, including escapes and non-finite floats. *)
    let nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 utf8 \xc3\xa9" in
    let events =
      [
        Obs.Export.Span
          { Obs.Export.id = 1; parent = None; name = nasty; start_s = 0.0;
            stop_s = 0.125;
            attrs =
              [ ("f", Obs.Export.Float 0.1); ("i", Obs.Export.Int (-3));
                ("s", Obs.Export.Str nasty); ("b", Obs.Export.Bool false);
                ("nan", Obs.Export.Float Float.nan);
                ("inf", Obs.Export.Float Float.infinity) ] };
        Obs.Export.Span
          { Obs.Export.id = 2; parent = Some 1; name = "child"; start_s = 0.25;
            stop_s = 0.5; attrs = [] };
        Obs.Export.Metric
          { Obs.Export.metric_name = "m"; kind = "histogram";
            fields = [ ("count", 2.0); ("sum", 1e-300); ("max", Float.nan) ] };
        Obs.Export.Sample
          { Obs.Export.s_kind = "resource"; t_s = 1.5;
            values = [ ("heap_words", 123456.0); ("rss_bytes", Float.nan) ] };
        Obs.Export.Sample
          { Obs.Export.s_kind = "chunk"; t_s = 2.0;
            values =
              [ ("domain", 3.0); ("lo", 0.0); ("hi", 64.0); ("start", 1.75);
                ("stop", 2.0) ] };
      ]
    in
    List.iter
      (fun ev ->
        let line = Obs.Export.to_json ev in
        match Obs.Export.of_json line with
        | Ok ev' -> check ("round-trip " ^ line) (String.equal line (Obs.Export.to_json ev'))
        | Error msg -> check (Printf.sprintf "parse %s (%s)" line msg) false)
      events;
    check "reject garbage" (Result.is_error (Obs.Export.of_json "{\"ev\":\"span\""));
    check "reject unknown event kind"
      (Result.is_error (Obs.Export.of_json "{\"ev\":\"bogus\",\"t\":1.0}"));
    (* 1b. Sample semantics: resource readings are well-formed, chunk
       samples aggregate into a utilization report, and the ticker's
       skip-missed-ticks policy holds under a manual clock. *)
    check "resource read has gc fields"
      (List.for_all
         (fun k -> List.mem_assoc k (Obs.Resource.read ()))
         [ "minor_words"; "promoted_words"; "major_collections"; "heap_words" ]);
    let tk = Obs.Resource.ticker ~period:1.0 ~now:0.0 in
    check "ticker not due early" (not (Obs.Resource.due tk ~now:0.5));
    check "ticker due at period" (Obs.Resource.due tk ~now:1.0);
    check "ticker skips missed ticks"
      (Obs.Resource.due tk ~now:5.25 && not (Obs.Resource.due tk ~now:5.75));
    (match
       Obs.Utilization.of_events
         [
           Obs.Export.Sample
             { Obs.Export.s_kind = "chunk"; t_s = 1.0;
               values =
                 [ ("domain", 0.0); ("lo", 0.0); ("hi", 8.0); ("start", 0.0);
                   ("stop", 1.0) ] };
         ]
     with
    | Some r ->
      check "utilization busy fraction in (0,1]"
        (List.for_all
           (fun d ->
             d.Obs.Utilization.busy_fraction > 0.0 && d.Obs.Utilization.busy_fraction <= 1.0)
           r.Obs.Utilization.domains);
      check "utilization imbalance finite" (Float.is_finite r.Obs.Utilization.imbalance)
    | None -> check "utilization report from one chunk" false);
    (* 2. Nesting under a deterministic clock and a memory sink. *)
    let source, advance = Obs.Clock.manual () in
    let sink, recorded = Obs.Export.memory () in
    Obs.Span.reset ();
    Obs.Export.install sink;
    Fun.protect
      ~finally:(fun () ->
        Obs.Export.uninstall ();
        Obs.Span.reset ())
      (fun () ->
        Obs.Clock.with_source source (fun () ->
            Obs.Span.with_ "outer" (fun _ ->
                advance 1.0;
                Obs.Span.with_ "inner" (fun _ -> advance 0.5))));
    (match recorded () with
    | [ Obs.Export.Span inner; Obs.Export.Span outer ] ->
      check "inner closes first" (String.equal inner.Obs.Export.name "inner");
      check "inner parent is outer" (inner.Obs.Export.parent = Some outer.Obs.Export.id);
      check "outer is a root" (outer.Obs.Export.parent = None);
      check "inner duration"
        (Float.equal (inner.Obs.Export.stop_s -. inner.Obs.Export.start_s) 0.5);
      check "outer duration"
        (Float.equal (outer.Obs.Export.stop_s -. outer.Obs.Export.start_s) 1.5)
    | evs -> check (Printf.sprintf "expected 2 spans, got %d events" (List.length evs)) false);
    match List.rev !failures with
    | [] ->
      print_endline "trace selfcheck: ok";
      0
    | fs ->
      List.iter (fun f -> Printf.eprintf "trace selfcheck FAILED: %s\n" f) fs;
      1
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:"Verify the trace schema: serialization round-trip (spans, metrics, samples), \
             span nesting, ticker policy, and utilization aggregation.")
    Term.(const run $ const ())

(* ---------------- trace diff ---------------- *)

let trace_diff_cmd =
  let file_a_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"A.JSONL" ~doc:"Baseline trace.")
  in
  let file_b_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"B.JSONL" ~doc:"Candidate trace, compared against the baseline.")
  in
  let tolerance_arg =
    Arg.(value & opt float Obs.Tracediff.default_tolerance
         & info [ "tolerance" ] ~docv:"FRAC"
             ~doc:"Relative per-span slowdown tolerated before a time regression fires \
                   (0.3 = 30%); must be finite and >= 0. Quality statistics are always \
                   compared exactly.")
  in
  let run file_a file_b tolerance =
    match read_trace_file file_a, read_trace_file file_b with
    | Error msg, _ ->
      Printf.eprintf "error: %s: %s\n" file_a msg;
      1
    | _, Error msg ->
      Printf.eprintf "error: %s: %s\n" file_b msg;
      1
    | Ok a, Ok b -> (
      match Obs.Tracediff.diff ~tolerance a b with
      | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        2
      | d ->
        Obs.Tracediff.output stdout d;
        if Obs.Tracediff.has_regression d then 1 else 0)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two traces of the same workload: per-span wall-time deltas gated with \
             a relative tolerance (plus absolute noise and delta floors), and per-solve \
             quality statistics compared exactly. Exit 1 on a time regression.")
    Term.(const run $ file_a_arg $ file_b_arg $ tolerance_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect and validate observability traces.")
    [
      trace_summarize_cmd; trace_convergence_cmd; trace_utilization_cmd; trace_export_cmd;
      trace_selfcheck_cmd; trace_diff_cmd;
    ]

(* ---------------- diagnose ---------------- *)

let diagnose_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.JSONL" ~doc:"Trace written by `deconvolve --trace` or \
                                             `batch --trace`.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON (exact float round-trip) instead \
                                 of text.")
  in
  let no_plot_arg =
    Arg.(value & flag
         & info [ "no-plot" ] ~doc:"Suppress the ASCII λ-profile plots in the text report.")
  in
  let kappa_limit_arg =
    Arg.(value & opt float Deconv.Quality.default_thresholds.Deconv.Quality.kappa_limit
         & info [ "kappa-limit" ] ~docv:"K"
             ~doc:"Flag solves whose condition number κ exceeds $(docv).")
  in
  let run file json no_plot kappa_limit =
    match read_trace_file file with
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      1
    | Ok events ->
      let thresholds =
        { Deconv.Quality.default_thresholds with Deconv.Quality.kappa_limit }
      in
      let cards = Deconv.Quality.cards ~thresholds events in
      if cards = [] then begin
        Printf.eprintf
          "error: %s carries no per-solve diag records — re-run with --trace on a build \
           with diagnostics enabled\n"
          file;
        1
      end
      else if json then begin
        print_string (Deconv.Quality.report_json cards);
        print_newline ();
        0
      end
      else begin
        Deconv.Quality.output_report ~thresholds ~plot:(not no_plot) stdout cards;
        0
      end
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Per-solve quality report card from a trace: condition number κ, selected λ and \
             effective degrees of freedom, the λ-candidate profile (plotted), weighted-residual \
             whiteness and normality verdicts, active-constraint counts, and the degradation \
             level, with flags for unhealthy solves.")
    Term.(const run $ file_arg $ json_arg $ no_plot_arg $ kappa_limit_arg)

(* ---------------- batch ---------------- *)

let genes_arg =
  Arg.(value & opt int 200 & info [ "genes" ] ~docv:"N" ~doc:"Number of genes in the panel.")

let faults_arg =
  Arg.(value & opt int 0
       & info [ "faults" ] ~docv:"K"
           ~doc:"Inject NaN corruption into $(docv) random gene rows (fault-isolation demo).")

let timeout_arg =
  Arg.(value & opt float 0.0
       & info [ "solve-timeout" ] ~docv:"SEC"
           ~doc:"Per-gene wall-clock budget in seconds (0 = unlimited). A gene that exceeds \
                 it fails with budget_exhausted instead of stalling a worker domain.")

let max_iters_arg =
  Arg.(value & opt int 0
       & info [ "max-iters" ] ~docv:"N"
           ~doc:"Per-gene iteration budget on the constrained QP's passes (0 = unlimited).")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Journal per-gene outcomes to $(docv) (atomic JSONL, fsync'd per block).")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Replay completed genes from the $(b,--checkpoint) journal and solve only \
                 the rest; results are bit-for-bit identical to an uninterrupted run.")

let block_arg =
  Arg.(value & opt int 64
       & info [ "block" ] ~docv:"N" ~doc:"Genes solved between checkpoint flushes.")

let no_keep_going_arg =
  Arg.(value & flag
       & info [ "no-keep-going" ]
           ~doc:"Fail hard (exit 1) on the first gene error instead of the default \
                 keep-going behavior (contain failures, finish the batch, exit 3 if any \
                 gene failed).")

let synthetic_panel ~rng ~kernel ~genes =
  Mat.of_rows
    (Array.init genes (fun _ ->
         let center = Rng.uniform rng ~lo:0.15 ~hi:0.85 in
         let width = Rng.uniform rng ~lo:0.08 ~hi:0.15 in
         let height = Rng.uniform rng ~lo:1.0 ~hi:4.0 in
         Deconv.Forward.apply_fn kernel
           (Biomodels.Gene_profile.gaussian_pulse ~center ~width ~height ())))

let print_outcome outcome =
  let open Deconv.Batch in
  Printf.printf "batch: %d genes, %d ok, %d failed, %d replayed from checkpoint\n"
    (Outcome.total outcome) (Outcome.ok_count outcome) (Outcome.failed_count outcome)
    outcome.Outcome.replayed;
  List.iter
    (fun (cls, n) -> Printf.printf "  failures.%s = %d\n" cls n)
    (Outcome.class_counts outcome);
  let failures = Outcome.failures outcome in
  List.iteri
    (fun i (g, e) ->
      if i < 10 then Printf.printf "  gene %d: %s\n" g (Robust.Error.to_string e))
    failures;
  if List.length failures > 10 then
    Printf.printf "  ... and %d more\n" (List.length failures - 10);
  Deconv.Quality.output_quantiles stdout outcome.Outcome.quality

let progress_flag_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Render a live status line on stderr while the batch runs: genes done, \
                 items/sec over a sliding window, ETA, and per-class failure counts.")

let sample_period_arg =
  Arg.(value & opt float 1.0
       & info [ "sample-period" ] ~docv:"SEC"
           ~doc:"Resource-sampler heartbeat period for $(b,--trace) (GC counters + RSS as \
                 {\"ev\":\"sample\"} records).")

let run_batch jobs seed genes faults cells phi_bins knots mu_sst cycle linear timeout
    max_iters checkpoint resume block no_keep_going trace progress_flag sample_period metrics =
  apply_jobs jobs;
  if metrics || Option.is_some trace then Obs.Metrics.enable ();
  if resume && checkpoint = None then begin
    Printf.eprintf "error: --resume requires --checkpoint FILE\n";
    exit 2
  end;
  (* Tracing turns on the whole live layer: JSONL sink, chunk probe on
     the pool, and the resource-sampler domain. Teardown order matters —
     sampler first (it emits), then probe, then the sink. *)
  let trace_channel =
    match trace with
    | None -> None
    | Some path ->
      let oc = open_out path in
      Obs.Export.install (Obs.Export.jsonl oc);
      Parallel.Probe.install chunk_probe;
      Some (path, oc, Obs.Resource.start ~period_s:sample_period ())
  in
  let progress =
    if not progress_flag then None
    else begin
      let p = Obs.Progress.create ~total:genes () in
      Obs.Progress.observe p (fun snap ->
          Printf.eprintf "\r%-78s%!" (Obs.Progress.render snap));
      Some p
    end
  in
  let params = params_of mu_sst cycle linear in
  let rng = Rng.create seed in
  let times = Dataio.Datasets.lv_measurement_times in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.split rng) ~n_cells:cells
      ~times ~n_phi:phi_bins
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
  let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
  let measurements = synthetic_panel ~rng:(Rng.split rng) ~kernel ~genes in
  let measurements =
    if faults <= 0 then measurements
    else begin
      let frng = Rng.split rng in
      let rows = Robust.Fault.choose_rows frng ~k:faults ~rows:genes in
      Printf.printf "injecting NaN faults into genes: %s\n"
        (String.concat "," (Array.to_list (Array.map string_of_int rows)));
      Robust.Fault.apply (Robust.Fault.corrupt_rows ~rows (Robust.Fault.nan_at ())) frng
        measurements
    end
  in
  let journal =
    match checkpoint with
    | None -> None
    | Some path when resume -> (
      match Deconv.Checkpoint.resume ~path with
      | Ok j ->
        Printf.printf "resuming from %s (%d journaled genes)\n" path
          (List.length (Deconv.Checkpoint.entries j));
        Some j
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)
    | Some path -> Some (Deconv.Checkpoint.create ~path)
  in
  let outcome =
    Obs.Span.with_ "batch" (fun sp ->
        Obs.Span.set_int sp "genes" genes;
        Obs.Span.set_int sp "jobs" (Parallel.jobs ());
        Deconv.Batch.solve_all_result batch ~lambda:`Gcv
          ?max_seconds:(if timeout > 0.0 then Some timeout else None)
          ?max_iterations:(if max_iters > 0 then Some max_iters else None)
          ?journal ~block ?progress ~measurements ())
  in
  (match progress with
  | Some p ->
    Obs.Progress.finish p;
    prerr_newline ()
  | None -> ());
  (match trace_channel with
  | Some (path, oc, sampler) ->
    Obs.Resource.stop sampler;
    Parallel.Probe.uninstall ();
    List.iter Obs.Export.emit (Obs.Metrics.events ());
    Obs.Export.uninstall ();
    close_out oc;
    Printf.printf "wrote observability trace to %s\n" path
  | None -> ());
  print_outcome outcome;
  if metrics then Obs.Metrics.output stdout;
  if Deconv.Batch.Outcome.fully_ok outcome then 0
  else if no_keep_going then 1
  else 3

let batch_cmd =
  let term =
    Term.(
      const run_batch $ jobs_arg $ seed_arg $ genes_arg $ faults_arg $ cells_arg $ phi_bins_arg
      $ knots_arg $ mu_sst_arg $ cycle_arg $ linear_volume_arg $ timeout_arg $ max_iters_arg
      $ checkpoint_arg $ resume_arg $ block_arg $ no_keep_going_arg $ trace_arg
      $ progress_flag_arg $ sample_period_arg $ metrics_flag_arg)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Survivable genome-scale batch deconvolution of a synthetic gene panel: per-gene \
             fault isolation, solve budgets, crash-safe checkpoint/resume. Exit codes: 0 all \
             genes ok, 3 batch completed with contained per-gene failures.")
    term

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let jobs_list_arg =
    Arg.(value & opt string "1,2,4"
         & info [ "jobs-list" ] ~docv:"N1,N2,..."
             ~doc:"Jobs settings the determinism invariant is checked at.")
  in
  let crash_after_arg =
    Arg.(value & opt int 0
         & info [ "crash-after" ] ~docv:"GENES"
             ~doc:"Inject the crash once this many genes completed (0 = halfway).")
  in
  let run genes faults seed jobs_list block crash_after checkpoint =
    let jobs =
      List.map
        (fun s -> int_of_string (String.trim s))
        (String.split_on_char ',' jobs_list)
    in
    let config =
      {
        Deconv.Chaos.default_config with
        Deconv.Chaos.genes;
        faults;
        seed;
        jobs;
        block;
        crash_after;
      }
    in
    let journal_path =
      match checkpoint with
      | Some p -> p
      | None -> Filename.temp_file "deconv-chaos" ".jsonl"
    in
    let report = Deconv.Chaos.run ~config ~journal_path () in
    Printf.printf "chaos: %d genes, %d injected faults (rows %s), jobs {%s}\n" genes faults
      (String.concat "," (Array.to_list (Array.map string_of_int report.Deconv.Chaos.faulty_rows)))
      (String.concat "," (List.map string_of_int jobs));
    List.iter
      (fun (cls, n) -> Printf.printf "  failures.%s = %d\n" cls n)
      report.Deconv.Chaos.class_counts;
    Printf.printf "  journaled errors: %d; resume replayed %d genes (journal: %s)\n"
      report.Deconv.Chaos.journaled_errors report.Deconv.Chaos.replayed journal_path;
    if Deconv.Chaos.passed report then begin
      Printf.printf "all isolation invariants held\n";
      0
    end
    else begin
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) report.Deconv.Chaos.violations;
      Printf.printf "%d invariant violation(s)\n"
        (List.length report.Deconv.Chaos.violations);
      1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Drive a batch under injected per-gene faults and a mid-batch crash, and assert \
             the isolation invariants: exactly the faulty genes fail, clean genes are \
             bit-for-bit identical to a fault-free run at every jobs setting, and \
             kill/resume reproduces the uninterrupted results exactly.")
    Term.(
      const run $ genes_arg $ Arg.(value & opt int 10 & info [ "faults" ] ~docv:"K"
                                     ~doc:"Number of injected faulty gene rows.")
      $ seed_arg $ jobs_list_arg $ block_arg $ crash_after_arg $ checkpoint_arg)

(* ---------------- main ---------------- *)

let () =
  let doc = "in-silico synchronization of cellular populations by expression deconvolution" in
  let info = Cmd.info "deconv-cli" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           simulate_cmd; deconvolve_cmd; batch_cmd; chaos_cmd; kernel_cmd; celltypes_cmd;
           identifiability_cmd; schedule_cmd; calibrate_cmd; trace_cmd;
           diagnose_cmd;
         ])
  in
  (* Documented exit codes: 0 ok, 1 gate/lint/run failure, 2 usage error,
     3 batch completed with contained per-gene failures. Cmdliner reports
     CLI usage errors as 124; fold them onto the documented code. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
