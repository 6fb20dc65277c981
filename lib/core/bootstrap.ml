open Numerics

type bands = {
  level : float;
  lower : Vec.t;
  median : Vec.t;
  upper : Vec.t;
  replicates : Mat.t;
}

let residual ?(replicates = 200) ?(level = 0.9) problem (estimate : Solver.estimate) ~rng =
  assert (replicates >= 10);
  assert (level > 0.0 && level < 1.0);
  let g = problem.Problem.measurements in
  let fitted = estimate.Solver.fitted in
  let sigmas = problem.Problem.sigmas in
  let n_m = Array.length g in
  (* Standardized residuals: r_m / sigma_m are exchangeable under the
     weighted model. *)
  let standardized = Array.init n_m (fun m -> (g.(m) -. fitted.(m)) /. sigmas.(m)) in
  let n_phi = Array.length estimate.Solver.profile in
  let profiles = Mat.zeros replicates n_phi in
  (* One substream per replicate, derived sequentially up front, so the
     resampling draws are a function of the replicate index alone and the
     fan-out below is bit-identical at every jobs setting. Each replicate
     solves into its own matrix row. *)
  let rngs = Array.make replicates rng in
  for b = 0 to replicates - 1 do
    rngs.(b) <- Rng.split rng
  done;
  (* Replicates share the design, weights and penalty (only measurements
     are resampled), so one locally created factorization cache serves the
     whole fan-out: a single Demmler–Reinsch decomposition warm-starts
     every replicate's QP. [residual_result] wires its cache identically —
     the bit-identical contract between the two paths includes the solver
     route. *)
  let cache = Optimize.Spectral.Cache.create () in
  Parallel.parallel_for ~n:replicates (fun ~lo ~hi ->
      for b = lo to hi - 1 do
        let brng = rngs.(b) in
        let resampled = Array.make n_m 0.0 in
        for m = 0 to n_m - 1 do
          resampled.(m) <- fitted.(m) +. (sigmas.(m) *. Rng.pick brng standardized)
        done;
        let problem_b = Problem.with_data problem resampled in
        let estimate_b = Solver.solve ~lambda:estimate.Solver.lambda ~cache problem_b in
        Mat.set_row profiles b estimate_b.Solver.profile
      done);
  let alpha = (1.0 -. level) /. 2.0 in
  let percentile q = Array.init n_phi (fun j -> Stats.quantile (Mat.col profiles j) q) in
  {
    level;
    lower = percentile alpha;
    median = percentile 0.5;
    upper = percentile (1.0 -. alpha);
    replicates = profiles;
  }

type outcome = {
  bands : bands option;
  failures : (int * Robust.Error.t) list;
  attempted : int;
  quality : (string * Quality.quantiles) list;
}

let residual_result ?(replicates = 200) ?(level = 0.9) ?max_seconds ?max_iterations ?progress
    problem (estimate : Solver.estimate) ~rng =
  assert (replicates >= 10);
  assert (level > 0.0 && level < 1.0);
  let g = problem.Problem.measurements in
  let fitted = estimate.Solver.fitted in
  let sigmas = problem.Problem.sigmas in
  let n_m = Array.length g in
  let standardized = Array.init n_m (fun m -> (g.(m) -. fitted.(m)) /. sigmas.(m)) in
  let n_phi = Array.length estimate.Solver.profile in
  (* Substreams derived exactly like [residual]'s, so the draws — and
     therefore every successful replicate's profile — are bit-identical
     to the all-or-nothing path. *)
  let rngs = Array.make replicates rng in
  for b = 0 to replicates - 1 do
    rngs.(b) <- Rng.split rng
  done;
  (* Factorization cache wired exactly as in [residual]: one decomposition
     shared by all replicates, so both paths take the same solver route and
     successful replicates stay bit-identical between them. *)
  let cache = Optimize.Spectral.Cache.create () in
  (* Same aggregation-only contract as Batch: fires on worker domains,
     Progress is mutex-guarded, replicate profiles are unaffected. *)
  let on_result _ res =
    match res with
    | Ok _ -> Obs.Progress.record_into progress ~ok:true ()
    | Error exn ->
      Obs.Progress.record_into progress
        ~cls:(Robust.Error.class_name (Robust.Error.of_exn exn))
        ~ok:false ()
  in
  let results =
    Parallel.parallel_map_result ~on_result ~n:replicates (fun b ->
        Obs.Diag.with_solve (Printf.sprintf "rep:%d" b) (fun () ->
            let brng = rngs.(b) in
            let resampled = Array.make n_m 0.0 in
            for m = 0 to n_m - 1 do
              resampled.(m) <- fitted.(m) +. (sigmas.(m) *. Rng.pick brng standardized)
            done;
            let problem_b = Problem.with_data problem resampled in
            let budget =
              if max_seconds = None && max_iterations = None then None
              else Some (Robust.Budget.create ?max_seconds ?max_iterations ())
            in
            let estimate_b =
              Solver.solve ?budget ~lambda:estimate.Solver.lambda ~cache problem_b
            in
            if Solver.finite_estimate estimate_b then
              ( estimate_b.Solver.profile,
                [
                  ("rss", estimate_b.Solver.data_misfit);
                  ("qp_iterations", float_of_int estimate_b.Solver.qp_iterations);
                  ("active_positivity", float_of_int estimate_b.Solver.active_positivity);
                ] )
            else
              Robust.Error.raise_error (Robust.Error.Non_finite { stage = "bootstrap replicate" })))
  in
  let failures = ref [] in
  let ok = ref [] in
  let stats = ref [] in
  Array.iteri
    (fun b -> function
      | Ok (profile, s) ->
        ok := profile :: !ok;
        stats := s :: !stats
      | Error exn -> failures := (b, Robust.Error.of_exn exn) :: !failures)
    results;
  let failures = List.rev !failures in
  let profiles_ok = Array.of_list (List.rev !ok) in
  (* Per-replicate quality quantiles: a replicate population whose RSS or
     iteration quantiles drift from the original fit's signals that the
     resampled problems are not exchangeable with it. *)
  let quality = Quality.summarize (List.rev !stats) in
  List.iter
    (fun (key, (q : Quality.quantiles)) ->
      Obs.Metrics.set ("bootstrap.quality." ^ key ^ ".p50") q.Quality.q50;
      Obs.Metrics.set ("bootstrap.quality." ^ key ^ ".p90") q.Quality.q90)
    quality;
  let bands =
    if Array.length profiles_ok = 0 then None
    else begin
      let profiles = Mat.of_rows profiles_ok in
      let alpha = (1.0 -. level) /. 2.0 in
      let percentile q = Array.init n_phi (fun j -> Stats.quantile (Mat.col profiles j) q) in
      Some
        {
          level;
          lower = percentile alpha;
          median = percentile 0.5;
          upper = percentile (1.0 -. alpha);
          replicates = profiles;
        }
    end
  in
  Obs.Metrics.incr ~by:(float_of_int (List.length failures)) "bootstrap.replicates_failed";
  { bands; failures; attempted = replicates; quality }

let width bands = Vec.sub bands.upper bands.lower

let coverage bands ~truth =
  assert (Array.length truth = Array.length bands.lower);
  let inside = ref 0 in
  Array.iteri
    (fun j v -> if v >= bands.lower.(j) -. 1e-12 && v <= bands.upper.(j) +. 1e-12 then incr inside)
    truth;
  float_of_int !inside /. float_of_int (Array.length truth)
