(* The Demmler-Reinsch spectral fast path: factorization identities,
   spectral-vs-direct equivalence (solution, GCV / L-curve / k-fold
   scores, edf) on well- and ill-conditioned fixtures, selection on a
   factorization passed in, the solver's reduced QP, and bitwise determinism of
   the batch path that shares one factorization. The direct per-candidate
   path is the oracle throughout — the two routes must agree to ~1e-8. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 900) ~n_cells:3000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

(* Oversized basis: more coefficients (18) than the 13 measurements, so
   the Gram matrix alone is structurally rank-deficient — the regime the
   anchored factorization exists for. *)
let wide_basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:16

let ftsz_data = lazy (Deconv.Forward.apply_fn (Lazy.force kernel) Biomodels.Ftsz.profile)

(* Well-conditioned fixture: the paper's ftsZ pulse on the standard basis. *)
let problem_well =
  lazy
    (Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis
       ~measurements:(Lazy.force ftsz_data) ~params ())

(* Ill-conditioned fixture: same data, oversized basis, uneven weights. *)
let problem_ill =
  lazy
    (let g = Lazy.force ftsz_data in
     let sigmas = Array.mapi (fun m _ -> 0.25 +. (0.05 *. float_of_int (m mod 3))) g in
     Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis:wide_basis
       ~measurements:g ~params ())

let fixtures = [ ("well", problem_well); ("ill", problem_ill) ]

let grid = Optimize.Cross_validation.log_lambda_grid ~lo:(-5.0) ~hi:1.0 ~count:9

(* The equivalence pins are 1e-8 in each quantity's natural scale. Both
   routes carry absolute rounding of order eps·kappa times the problem
   scale, so "relative to the data's weighted norm" (for misfit-derived
   quantities) and "relative to the solution norm" (for coefficient
   vectors) are the honest formulations — a bare relative comparison would
   demand more accuracy of a near-interpolating candidate's tiny RSS than
   either path can deliver. Probed margins are >= two orders under the
   pins on both fixtures. *)
let weighted_data_norm problem =
  let w = Deconv.Problem.weights problem in
  let b = problem.Deconv.Problem.measurements in
  Vec.dot b (Vec.mul w b)

let check_vec_scaled ~tol msg expected actual =
  let scale = Float.max 1.0 (Vec.norm_inf expected) in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. actual.(i)) > tol *. scale then
        Alcotest.failf "%s [%d]: expected %.12g, got %.12g (tol %g x scale %g)" msg i v
          actual.(i) tol scale)
    expected

let pieces problem =
  let a = Deconv.Problem.design problem in
  let w = Deconv.Problem.weights problem in
  let omega = Deconv.Problem.penalty problem in
  (a, w, omega)

let spectral_of problem =
  let a, w, omega = pieces problem in
  let fact = Optimize.Spectral.factorize_problem ~a ~weights:w ~penalty:omega in
  let proj =
    Optimize.Spectral.project_data fact ~a ~weights:w ~b:problem.Deconv.Problem.measurements
  in
  (fact, proj)

(* ---------------- factorization identities ---------------- *)

let test_factorization_identities () =
  let problem = Lazy.force problem_well in
  let a, w, omega = pieces problem in
  let gram = Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:omega ~lambda:0.0 in
  let fact = Optimize.Spectral.factorize_auto ~gram ~penalty:omega in
  let b = fact.Optimize.Spectral.basis in
  let n = Optimize.Spectral.size fact in
  let s =
    Mat.add gram (Mat.scale fact.Optimize.Spectral.anchor omega)
  in
  (* B' S B = I and B' Omega B = Gamma, entrywise. *)
  let check_congruence name m expected =
    let bt_m_b = Mat.matmul (Mat.transpose b) (Mat.matmul m b) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check_close ~tol:1e-7
          (Printf.sprintf "%s (%d,%d)" name i j)
          (expected i j) (Mat.get bt_m_b i j)
      done
    done
  in
  check_congruence "B'SB = I" s (fun i j -> if i = j then 1.0 else 0.0);
  check_congruence "B'OmegaB = Gamma" omega (fun i j ->
      if i = j then fact.Optimize.Spectral.gamma.(i) else 0.0);
  check_true "eigenvalues nonnegative"
    (Array.for_all (fun g -> g >= 0.0) fact.Optimize.Spectral.gamma)

(* ---------------- solution and score equivalence ---------------- *)

let direct_fit problem lambda =
  let a, w, omega = pieces problem in
  Ridge_oracle.solve ~a ~b:problem.Deconv.Problem.measurements ~weights:w ~penalty:omega
    ~lambda ()

let test_solution_matches_direct () =
  List.iter
    (fun (name, problem) ->
      let problem = Lazy.force problem in
      let fact, proj = spectral_of problem in
      Array.iter
        (fun lambda ->
          let direct = direct_fit problem lambda in
          let spectral = Optimize.Spectral.solution fact proj ~lambda in
          check_vec_scaled ~tol:1e-8
            (Printf.sprintf "%s: x(%g) spectral = direct" name lambda)
            direct.Ridge_oracle.x spectral)
        grid)
    fixtures

let test_scores_match_direct () =
  List.iter
    (fun (name, problem) ->
      let problem = Lazy.force problem in
      let _, _, omega = pieces problem in
      let fact, proj = spectral_of problem in
      let yty = weighted_data_norm problem in
      Array.iter
        (fun lambda ->
          let direct = direct_fit problem lambda in
          let s = Optimize.Spectral.evaluate fact proj ~lambda in
          let label what = Printf.sprintf "%s: %s(%g)" name what lambda in
          check_close
            ~tol:(1e-8 *. Float.max (Float.abs direct.Ridge_oracle.rss) yty)
            (label "rss") direct.Ridge_oracle.rss s.Optimize.Spectral.rss;
          check_rel ~tol:1e-8 (label "edf") direct.Ridge_oracle.edf s.Optimize.Spectral.edf;
          let x = direct.Ridge_oracle.x in
          let roughness = Vec.dot x (Mat.mv omega x) in
          check_rel ~tol:1e-8 (label "roughness") roughness s.Optimize.Spectral.roughness)
        grid)
    fixtures

(* GCV through the public selector (spectral path) against the score
   recomputed candidate-by-candidate with direct Ridge solves. *)
let robust_gamma = 1.4

let test_gcv_selector_matches_direct () =
  List.iter
    (fun (name, problem) ->
      let problem = Lazy.force problem in
      let n = float_of_int (Deconv.Problem.num_measurements problem) in
      let yty = weighted_data_norm problem in
      let chosen, curve = Deconv.Lambda.gcv problem ~lambdas:grid in
      Alcotest.(check int)
        (name ^ ": full candidate curve")
        (Array.length grid) (Array.length curve);
      Array.iteri
        (fun i (p : Deconv.Lambda.curve_point) ->
          let fit = direct_fit problem grid.(i) in
          let denom = n -. (robust_gamma *. fit.Ridge_oracle.edf) in
          let reference =
            if denom <= 0.0 then Float.infinity
            else n *. fit.Ridge_oracle.rss /. (denom *. denom)
          in
          if Float.is_finite reference then
            (* The score is n·RSS/denom²: 1e-8 in the score's own scale is
               1e-8·n·max(RSS, y'Wy)/denom². *)
            check_close
              ~tol:(1e-8 *. n *. Float.max (Float.abs fit.Ridge_oracle.rss) yty /. (denom *. denom))
              (Printf.sprintf "%s: GCV score at candidate %d" name i)
              reference p.Deconv.Lambda.score
          else
            check_true
              (Printf.sprintf "%s: GCV score at candidate %d infinite on both paths" name i)
              (not (Float.is_finite p.Deconv.Lambda.score)))
        curve;
      let best = ref 0 in
      Array.iteri (fun i p -> if p.Deconv.Lambda.score < curve.(!best).Deconv.Lambda.score then best := i) curve;
      check_close ~tol:0.0 (name ^ ": argmin lambda") curve.(!best).Deconv.Lambda.lambda chosen)
    fixtures

let test_lcurve_points_match_direct () =
  List.iter
    (fun (name, problem) ->
      let problem = Lazy.force problem in
      let fact, proj = spectral_of problem in
      let yty = weighted_data_norm problem in
      Array.iter
        (fun lambda ->
          let est = Deconv.Solver.solve_unconstrained ~lambda problem in
          let s = Optimize.Spectral.evaluate fact proj ~lambda in
          check_close
            ~tol:(1e-8 *. Float.max (Float.abs est.Deconv.Solver.data_misfit) yty)
            (Printf.sprintf "%s: L-curve misfit(%g)" name lambda)
            est.Deconv.Solver.data_misfit s.Optimize.Spectral.rss;
          check_rel ~tol:1e-8
            (Printf.sprintf "%s: L-curve roughness(%g)" name lambda)
            est.Deconv.Solver.roughness s.Optimize.Spectral.roughness)
        grid)
    fixtures

(* k-fold through the public selector (spectral path, anchored train
   factorizations) against the direct oracle: same fold-master derivation,
   per-candidate Ridge refits on each training subset. *)
let test_kfold_selector_matches_direct () =
  let problem = Lazy.force problem_well in
  let a, w, omega = pieces problem in
  let b = problem.Deconv.Problem.measurements in
  let n = Array.length b in
  let k = 4 in
  let seed = 77 in
  let chosen, curve = Deconv.Lambda.kfold problem ~rng:(Rng.create seed) ~k ~lambdas:grid in
  (* Replicate the selector's fold derivation: one master split off the
     caller's rng, privately copied per candidate. *)
  let fold_master = Rng.split (Rng.create seed) in
  let submatrix rows = Mat.init (Array.length rows) a.Mat.cols (fun i j -> Mat.get a rows.(i) j) in
  let subvec rows v = Array.map (fun i -> v.(i)) rows in
  Array.iteri
    (fun i (p : Deconv.Lambda.curve_point) ->
      let lambda = grid.(i) in
      let reference =
        kfold_score ~rng:(Rng.copy fold_master) ~k ~n
          ~fit_on:(fun ~train lambda ->
            Ridge_oracle.solve ~a:(submatrix train) ~b:(subvec train b)
              ~weights:(subvec train w) ~penalty:omega ~lambda ())
          ~predict_error:(fun fit ~test ->
            let acc = ref 0.0 in
            Array.iter
              (fun m ->
                let predicted = Vec.dot (Mat.row a m) fit.Ridge_oracle.x in
                let r = b.(m) -. predicted in
                acc := !acc +. (w.(m) *. r *. r))
              test;
            !acc /. float_of_int (Array.length test))
          lambda
      in
      check_rel ~tol:1e-8 (Printf.sprintf "k-fold score at candidate %d" i) reference
        p.Deconv.Lambda.score)
    curve;
  check_true "chosen lambda is a grid member" (Array.exists (fun l -> Float.equal l chosen) grid)

(* ---------------- factorization passed in ---------------- *)

(* Selection on a factorization formed by the caller agrees bit-for-bit
   with selection that factors inside the call: passing it in only
   changes where the factorization comes from, never its value. *)
let test_passed_factorization_does_not_change_selection () =
  let problem = Lazy.force problem_well in
  let plain, curve_plain = Deconv.Lambda.gcv problem ~lambdas:grid in
  let passed, curve_passed =
    Deconv.Lambda.gcv ~spectral:(Deconv.Problem.factorize problem) problem ~lambdas:grid
  in
  Alcotest.(check int) "same bits for chosen lambda"
    0
    (Int64.compare (Int64.bits_of_float plain) (Int64.bits_of_float passed));
  Array.iteri
    (fun i (p : Deconv.Lambda.curve_point) ->
      Alcotest.(check int)
        (Printf.sprintf "same bits for score %d" i)
        0
        (Int64.compare
           (Int64.bits_of_float p.Deconv.Lambda.score)
           (Int64.bits_of_float curve_passed.(i).Deconv.Lambda.score)))
    curve_plain

(* ---------------- the solver's reduced QP ---------------- *)

let test_solver_is_the_reduced_qp () =
  let problem = Lazy.force problem_well in
  let lambda = 1e-4 in
  let est = Deconv.Solver.solve ~lambda problem in
  (* The same reduced QP over the free coefficients β of α = Zβ (eq. 5's H
     and g projected on Z, positivity rows ΨZ), solved directly. *)
  let a = Deconv.Problem.design problem in
  let w = Deconv.Problem.weights problem in
  let omega = Deconv.Problem.penalty problem in
  let h = Mat.scale 2.0 (Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:omega ~lambda) in
  let g = Vec.scale (-2.0) (Mat.tmv a (Vec.mul w problem.Deconv.Problem.measurements)) in
  let z = problem.Deconv.Problem.null_space in
  let positivity =
    match problem.Deconv.Problem.positivity with
    | Some p -> p
    | None -> Alcotest.fail "positivity block missing"
  in
  let direct =
    Optimize.Qp.solve
      {
        Optimize.Qp.h = Mat.matmul (Mat.transpose z) (Mat.matmul h z);
        g = Mat.tmv z g;
        ineq = Some (positivity, Vec.zeros positivity.Mat.rows);
      }
  in
  check_true "direct QP converges" (direct.Optimize.Qp.status = Optimize.Qp.Converged);
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "alpha.(%d) = (Z beta).(%d), bit for bit" i i)
        0
        (Int64.compare (Int64.bits_of_float v) (Int64.bits_of_float est.Deconv.Solver.alpha.(i))))
    (Mat.mv z direct.Optimize.Qp.x);
  Alcotest.(check int) "same passes" direct.Optimize.Qp.iterations est.Deconv.Solver.qp_iterations;
  Alcotest.(check int) "same active set size" (List.length direct.Optimize.Qp.active)
    est.Deconv.Solver.active_positivity

(* ---------------- batch determinism on the shared factorization ---------------- *)

let batch_measurements =
  lazy
    (let genes = Array.sub Biomodels.Cell_cycle_genes.panel 0 4 in
     Mat.of_rows
       (Array.map
          (fun (g : Biomodels.Cell_cycle_genes.gene) ->
            Deconv.Forward.apply_fn (Lazy.force kernel) g.Biomodels.Cell_cycle_genes.profile)
          genes))

let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

let test_batch_shared_factorization_jobs_independent () =
  let batch = Deconv.Batch.prepare ~kernel:(Lazy.force kernel) ~basis ~params () in
  let measurements = Lazy.force batch_measurements in
  let run () =
    let outcome = Deconv.Batch.solve_all_result batch ~measurements () in
    check_true "all genes solved" (Deconv.Batch.Outcome.fully_ok outcome);
    Deconv.Batch.Outcome.estimates outcome
  in
  let reference = with_jobs 1 run in
  let wide = with_jobs 3 run in
  Array.iteri
    (fun g (est : Deconv.Solver.estimate) ->
      let other = wide.(g) in
      Array.iteri
        (fun j v ->
          Alcotest.(check int)
            (Printf.sprintf "gene %d profile[%d] bit-identical across jobs" g j)
            0
            (Int64.compare (Int64.bits_of_float v)
               (Int64.bits_of_float other.Deconv.Solver.profile.(j))))
        est.Deconv.Solver.profile)
    reference

(* ---------------- diag stream still carries the curve ---------------- *)

let test_diag_curve_survives_fast_path () =
  Obs.Span.reset ();
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Export.uninstall ();
      Obs.Span.reset ())
    (fun () ->
      let problem = Lazy.force problem_well in
      let spectral = Deconv.Problem.factorize problem in
      let chosen = Deconv.Lambda.select problem ~method_:`Gcv ~lambdas:grid ~spectral () in
      let lambda_events =
        List.filter_map
          (function
            | Obs.Export.Diag d when String.equal d.Obs.Diag.d_stage "lambda" -> Some d
            | _ -> None)
          (recorded ())
      in
      match lambda_events with
      | [ d ] ->
        Alcotest.(check int)
          "diag event carries the full candidate curve" (Array.length grid)
          (Array.length d.Obs.Diag.d_curve);
        (match Obs.Diag.value d "chosen" with
        | Some v -> check_close ~tol:0.0 "diag chosen matches" chosen v
        | None -> Alcotest.fail "lambda diag event has no 'chosen' value")
      | l -> Alcotest.failf "expected exactly one lambda diag event, got %d" (List.length l))

(* Every σ but the first set to the masking value leaves one effective
   measurement: the anchored factorization of the weighted Gram side fails,
   and every selector reports it as the typed lambda-selection error. *)
let test_degenerate_weights_non_finite () =
  let g = Lazy.force ftsz_data in
  let sigmas = Array.mapi (fun m _ -> if m = 0 then 1.0 else 1e150) g in
  let problem =
    Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements:g ~params ()
  in
  List.iter
    (fun (name, method_) ->
      match Deconv.Lambda.select_result problem ~method_ ~rng:(Rng.create 3) () with
      | Error (Robust.Error.Non_finite { stage }) ->
        check_true
          (Printf.sprintf "%s: stage %S names lambda selection" name stage)
          (String.length stage > 16 && String.equal (String.sub stage 0 16) "lambda selection")
      | Error e -> Alcotest.failf "%s: expected Non_finite, got %s" name (Robust.Error.to_string e)
      | Ok l -> Alcotest.failf "%s: expected Non_finite, got Ok %g" name l)
    [ ("gcv", `Gcv); ("kfold", `Kfold 5); ("lcurve", `Lcurve) ]

let tests =
  [
    ( "spectral",
      [
        case "factorization identities" test_factorization_identities;
        case "solution equals direct" test_solution_matches_direct;
        case "scores equal direct" test_scores_match_direct;
        case "gcv selector equals direct" test_gcv_selector_matches_direct;
        case "lcurve points equal direct" test_lcurve_points_match_direct;
        case "kfold selector equals direct" test_kfold_selector_matches_direct;
        case "passed factorization never changes selection"
          test_passed_factorization_does_not_change_selection;
        case "solver solves the reduced QP, bit for bit"
          test_solver_is_the_reduced_qp;
        case "shared-factorization batch is jobs-independent"
          test_batch_shared_factorization_jobs_independent;
        case "diag curve survives the fast path" test_diag_curve_survives_fast_path;
        case "degenerate weights -> Non_finite" test_degenerate_weights_non_finite;
      ] );
  ]
