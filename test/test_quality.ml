(* Quality.system, the one computation of κ and edf, against independent
   oracles: edf against the direct ridge fit's Σ_m w_m a_mᵀM⁻¹a_m, the
   1-norm κ against the Jacobi κ₂ through κ₂ <= κ₁ <= n·κ₂, and the non-SPD
   contract (κ = ∞, edf = NaN). Also pins that every consumer — the solve
   record, Diagnostics, solve_robust — reads the same numbers, and that the
   standardized residuals have one definition. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let estimate_kernel ~seed times =
  Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create seed) ~n_cells:3000 ~times
    ~n_phi:101

let kernel = lazy (estimate_kernel ~seed:1200 times)
let lv_kernel = lazy (estimate_kernel ~seed:1300 Dataio.Datasets.lv_measurement_times)

let make_problem ?sigmas ?(basis = basis) kernel measurements =
  Deconv.Problem.create ?sigmas ~kernel ~basis ~measurements ~params ()

let ftsz_problem =
  lazy
    (let k = Lazy.force kernel in
     make_problem k (Deconv.Forward.apply_fn k Biomodels.Ftsz.profile))

(* The batch fixture: the first cell-cycle panel genes on one shared
   kernel, as Batch.prepare's template re-pointed per gene; the LV x₁
   profile on the paper's LV sampling times; and ftsZ. *)
let fixtures =
  lazy
    (let k = Lazy.force kernel in
     let batch =
       Array.to_list
         (Array.map
            (fun (g : Biomodels.Cell_cycle_genes.gene) ->
              ( "batch " ^ g.Biomodels.Cell_cycle_genes.name,
                make_problem k (Deconv.Forward.apply_fn k g.Biomodels.Cell_cycle_genes.profile) ))
            (Array.sub Biomodels.Cell_cycle_genes.panel 0 4))
     in
     let lv =
       let k = Lazy.force lv_kernel in
       let _, x1, _ =
         Biomodels.Lotka_volterra.phase_profiles Biomodels.Lotka_volterra.default_params
           ~x0:Biomodels.Lotka_volterra.default_x0
           ~n_phi:(Array.length k.Cellpop.Kernel.phases)
       in
       make_problem k (Cellpop.Kernel.integrate_profile k x1)
     in
     batch @ [ ("LV", lv); ("ftsZ", Lazy.force ftsz_problem) ])

let normal problem ~lambda =
  Optimize.Ridge.normal_matrix ~a:(Deconv.Problem.design problem)
    ~weights:(Deconv.Problem.weights problem) ~penalty:(Deconv.Problem.penalty problem) ~lambda

let oracle_edf problem ~lambda =
  (Ridge_oracle.solve ~a:(Deconv.Problem.design problem) ~b:problem.Deconv.Problem.measurements
     ~weights:(Deconv.Problem.weights problem) ~penalty:(Deconv.Problem.penalty problem) ~lambda
     ())
    .Ridge_oracle.edf

(* edf against the oracle and κ₂ <= κ₁ <= n·κ₂. The two edf routes solve
   against the same factor of M but for different right-hand sides, so
   their forward errors scale with κ: the pin is 1e-10 relative plus
   0.05·eps·κ₂ (measured differences stay under 0.003·eps·κ₂, and under
   1e-10 wherever κ₂ <= 1e8). The κ bounds get a 10·eps·κ₂ relative slack
   for the same reason; measured κ₁/κ₂ lies in [1.5, 2.3]. *)
let check_system label problem ~lambda =
  let s = Deconv.Quality.system problem ~lambda in
  let m = normal problem ~lambda in
  let k2 = condition_spd m in
  let expected = oracle_edf problem ~lambda in
  let tol = 1e-10 +. (0.05 *. epsilon_float *. k2) in
  if not (Float.abs (s.Deconv.Quality.edf -. expected) <= tol *. Float.abs expected) then
    Alcotest.failf "%s: edf %.15g, oracle %.15g (rel tol %.3g at kappa2 %.3g)" label
      s.Deconv.Quality.edf expected tol k2;
  let n = float_of_int m.Mat.rows in
  let slack = 1.0 +. (10.0 *. epsilon_float *. k2) in
  let k1 = s.Deconv.Quality.kappa in
  if not (Float.is_finite k2 && k2 <= k1 *. slack && k1 <= n *. k2 *. slack) then
    Alcotest.failf "%s: kappa1 %.6g outside [kappa2, n kappa2] = [%.6g, %.6g]" label k1 k2
      (n *. k2)

let lambdas = [ 1e-6; 1e-4; 1e-2; 1.0 ]

let test_fixtures_match_oracles () =
  List.iter
    (fun (name, problem) ->
      let gcv = Deconv.Lambda.select problem ~method_:`Gcv () in
      List.iter
        (fun lambda -> check_system (Printf.sprintf "%s at lambda %g" name lambda) problem ~lambda)
        (gcv :: lambdas))
    (Lazy.force fixtures)

(* Random SPD systems: random basis size, per-measurement sigmas and λ over
   eight decades on the ftsZ data. *)
let prop_random_systems_match_oracles =
  qcheck ~count:40 "random SPD systems match the oracles"
    QCheck2.Gen.(triple (int_range 5 12) (float_range (-7.0) 1.0) (int_range 0 10_000))
    (fun (knots, log_lambda, seed) ->
      let k = Lazy.force kernel in
      let rng = Rng.create seed in
      let sigmas = Array.init 13 (fun _ -> 0.05 *. (40.0 ** Rng.float rng)) in
      let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
      let problem =
        make_problem ~sigmas ~basis k (Deconv.Forward.apply_fn k Biomodels.Ftsz.profile)
      in
      check_system
        (Printf.sprintf "knots %d, lambda 1e%.2f, seed %d" knots log_lambda seed)
        problem ~lambda:(10.0 ** log_lambda);
      true)

(* The CLI crash case: 20 coefficients, 13 measurements, no penalty. *)
let wide_problem () =
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:20 in
  let k = Lazy.force kernel in
  make_problem ~basis k (Deconv.Forward.apply_fn k Biomodels.Ftsz.profile)

let check_not_spd label (s : Deconv.Quality.system) =
  check_true (label ^ ": kappa infinite") (s.Deconv.Quality.kappa = Float.infinity);
  check_true (label ^ ": edf NaN") (Float.is_nan s.Deconv.Quality.edf)

let test_non_spd_system () =
  let wide = wide_problem () in
  check_not_spd "20 knots at lambda 0" (Deconv.Quality.system wide ~lambda:0.0);
  (match oracle_edf wide ~lambda:0.0 with
  | _ -> Alcotest.fail "the oracle factored a matrix Quality.system could not"
  | exception Linalg.Singular _ -> ());
  (* A negative λ makes M indefinite: the Jacobi oracle sees a negative
     eigenvalue too. *)
  let ftsz = Lazy.force ftsz_problem in
  check_not_spd "negative lambda" (Deconv.Quality.system ftsz ~lambda:(-1.0));
  check_true "oracle agrees M is indefinite"
    (condition_spd (normal ftsz ~lambda:(-1.0)) = Float.infinity)

(* ---------------- one path for every consumer ---------------- *)

let test_solve_record_reads_system () =
  let problem = Lazy.force ftsz_problem in
  let est = Deconv.Solver.solve ~lambda:1e-4 problem in
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Fun.protect ~finally:Obs.Export.uninstall (fun () ->
      Deconv.Quality.emit_solve ~problem ~fitted:est.Deconv.Solver.fitted ~lambda:1e-4
        ~entry_lambda:1e-4 ~rss:est.Deconv.Solver.data_misfit ~degradation:0
        ~active_positivity:0 ~qp_iterations:0 ());
  let solve =
    match
      List.find_map
        (function
          | Obs.Export.Diag d when String.equal d.Obs.Diag.d_stage "solve" -> Some d | _ -> None)
        (recorded ())
    with
    | Some d -> d
    | None -> Alcotest.fail "no solve record"
  in
  let s = Deconv.Quality.system problem ~lambda:1e-4 in
  let value key = Option.value (Obs.Diag.value solve key) ~default:Float.nan in
  check_close ~tol:0.0 "record kappa is system kappa" s.Deconv.Quality.kappa (value "kappa");
  check_close ~tol:0.0 "record edf is system edf" s.Deconv.Quality.edf (value "edf")

let test_diagnostics_dof_reads_system () =
  let problem = Lazy.force ftsz_problem in
  let est = Deconv.Solver.solve ~lambda:1e-3 problem in
  let report = Deconv.Diagnostics.analyze problem est in
  let edf = (Deconv.Quality.system problem ~lambda:1e-3).Deconv.Quality.edf in
  check_close ~tol:0.0 "dof = n - edf" (13.0 -. edf) report.Deconv.Diagnostics.dof

let test_robust_condition_reads_system () =
  let problem = Lazy.force ftsz_problem in
  let _, report =
    match Deconv.Solver.solve_robust ~lambda:1e-4 problem with
    | Ok r -> r
    | Error e -> Alcotest.failf "robust solve failed: %s" (Robust.Error.to_string e)
  in
  check_close ~tol:0.0 "report condition is system kappa at the entry lambda"
    (Deconv.Quality.system problem ~lambda:1e-4).Deconv.Quality.kappa
    report.Robust.Report.condition

let test_standardized_residuals () =
  let problem = Lazy.force ftsz_problem in
  let sigmas = Array.init 13 (fun m -> 0.1 +. (0.02 *. float_of_int m)) in
  let problem = Deconv.Problem.with_data ~sigmas problem problem.Deconv.Problem.measurements in
  let est = Deconv.Solver.solve ~lambda:1e-3 problem in
  let g = problem.Deconv.Problem.measurements in
  let fitted = est.Deconv.Solver.fitted in
  let z = Deconv.Quality.standardized_residuals problem ~fitted in
  check_vec ~tol:0.0 "(g - fitted) / sigma"
    (Array.init 13 (fun m -> (g.(m) -. fitted.(m)) /. sigmas.(m)))
    z;
  check_vec ~tol:0.0 "Diagnostics reports the same residuals" z
    (Deconv.Diagnostics.analyze problem est).Deconv.Diagnostics.standardized_residuals

let tests =
  [
    ( "quality-system",
      [
        case "fixtures match the oracles" test_fixtures_match_oracles;
        prop_random_systems_match_oracles;
        case "non-SPD system: kappa inf, edf NaN" test_non_spd_system;
        case "solve record reads the system" test_solve_record_reads_system;
        case "diagnostics dof reads the system" test_diagnostics_dof_reads_system;
        case "robust solve condition reads the system" test_robust_condition_reads_system;
        case "one standardized-residual definition" test_standardized_residuals;
      ] );
  ]
