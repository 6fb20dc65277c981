open Numerics

type bands = {
  level : float;
  lower : Vec.t;
  median : Vec.t;
  upper : Vec.t;
  replicates : Mat.t;
}

type outcome = {
  bands : bands option;
  failures : (int * Robust.Error.t) list;
  attempted : int;
  quality : (string * Quality.quantiles) list;
}

let residual_result ?(replicates = 200) ?(level = 0.9) ?max_seconds ?max_iterations ?progress
    problem (estimate : Solver.estimate) ~rng =
  if replicates < 10 then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         { field = "replicates"; why = Printf.sprintf "%d is below the minimum of 10" replicates });
  if not (level > 0.0 && level < 1.0) then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         { field = "level"; why = Printf.sprintf "%g is not in (0, 1)" level });
  let fitted = estimate.Solver.fitted in
  let sigmas = problem.Problem.sigmas in
  (* Standardized residuals: r_m / sigma_m are exchangeable under the
     weighted model. *)
  let standardized = Quality.standardized_residuals problem ~fitted in
  let n_m = Array.length standardized in
  let n_phi = Array.length estimate.Solver.profile in
  (* One substream per replicate, derived sequentially up front, so the
     resampling draws are a function of the replicate index alone and the
     fan-out below is bit-identical at every jobs setting. *)
  let rngs = Array.init replicates (fun _ -> Rng.split rng) in
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
            let resampled =
              Array.init n_m (fun m ->
                  fitted.(m) +. (sigmas.(m) *. Rng.pick rngs.(b) standardized))
            in
            let problem_b = Problem.with_data problem resampled in
            let budget =
              if max_seconds = None && max_iterations = None then None
              else Some (Robust.Budget.create ?max_seconds ?max_iterations ())
            in
            let estimate_b = Solver.solve ?budget ~lambda:estimate.Solver.lambda problem_b in
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
  Array.iteri
    (fun b -> function
      | Ok r -> ok := r :: !ok
      | Error exn -> failures := (b, Robust.Error.of_exn exn) :: !failures)
    results;
  let failures = List.rev !failures in
  let ok = List.rev !ok in
  (* Per-replicate quality quantiles: a replicate population whose RSS or
     iteration quantiles drift from the original fit's signals that the
     resampled problems are not exchangeable with it. *)
  let quality = Quality.summarize (List.map snd ok) in
  Quality.publish ~prefix:"bootstrap" quality;
  let bands =
    if ok = [] then None
    else begin
      let profiles = Mat.of_rows (Array.of_list (List.map fst ok)) in
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

(* The all-or-nothing form, as [Batch.solve_all] is over
   [solve_all_result]: the lowest-index failure is raised. With no failure
   every replicate contributed a row, so the bands exist. *)
let residual ?replicates ?level problem estimate ~rng =
  match residual_result ?replicates ?level problem estimate ~rng with
  | { failures = (_, e) :: _; _ } -> Robust.Error.raise_error e
  | { bands = Some bands; _ } -> bands
  | { bands = None; failures = []; _ } -> assert false

let width bands = Vec.sub bands.upper bands.lower

let coverage bands ~truth =
  assert (Array.length truth = Array.length bands.lower);
  let inside = ref 0 in
  Array.iteri
    (fun j v -> if v >= bands.lower.(j) -. 1e-12 && v <= bands.upper.(j) +. 1e-12 then incr inside)
    truth;
  float_of_int !inside /. float_of_int (Array.length truth)
