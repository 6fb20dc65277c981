(* Cross-cutting property-based tests: invariants that must hold for
   random inputs across the whole stack. *)

open Numerics
open Testutil

(* Shared small kernel for the deconvolution properties. *)
let params = Cellpop.Params.paper_2011
let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0; 180.0 |]

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 2100) ~n_cells:1500 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:10

let prop_kernel_normalized_random_params =
  qcheck ~count:10 "kernel rows normalized for random population parameters"
    QCheck2.Gen.(triple (float_range 0.08 0.35) (float_range 0.05 0.2) (int_range 1 10000))
    (fun (mu_sst, cv_cycle, seed) ->
      let p = { params with Cellpop.Params.mu_sst; cv_cycle } in
      let k =
        Cellpop.Kernel.estimate p ~rng:(Rng.create seed) ~n_cells:300
          ~times:[| 0.0; 60.0; 120.0 |] ~n_phi:51
      in
      Cellpop.Kernel.check_normalization k < 1e-9)

let prop_forward_monotone_in_profile =
  (* A pointwise-larger profile gives pointwise-larger measurements (the
     kernel is nonnegative). *)
  qcheck ~count:50 "forward model monotone"
    QCheck2.Gen.(array_size (return 101) (float_range 0.0 5.0))
    (fun f ->
      let k = Lazy.force kernel in
      let g1 = Deconv.Forward.apply k f in
      let g2 = Deconv.Forward.apply k (Array.map (fun v -> v +. 0.5) f) in
      Array.for_all2 (fun a b -> b >= a -. 1e-12) g1 g2)

let prop_forward_bounds =
  (* Measurements of a profile lie within [min f, max f] (Q is a
     probability density in phi). *)
  qcheck ~count:50 "forward model respects profile bounds"
    QCheck2.Gen.(array_size (return 101) (float_range 0.0 10.0))
    (fun f ->
      let k = Lazy.force kernel in
      let g = Deconv.Forward.apply k f in
      let lo = Vec.min f -. 1e-9 and hi = Vec.max f +. 1e-9 in
      Array.for_all (fun v -> v >= lo && v <= hi) g)

let prop_solver_positivity_random_data =
  qcheck ~count:15 "solver output nonnegative for random measurements"
    QCheck2.Gen.(array_size (return 7) (float_range 0.0 5.0))
    (fun g ->
      let problem =
        Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:g ~params ()
      in
      let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
      Array.for_all (fun v -> v >= -1e-6) estimate.Deconv.Solver.profile)

let prop_solver_constraints_random_data =
  qcheck ~count:15 "equality constraints hold for random measurements"
    QCheck2.Gen.(array_size (return 7) (float_range 0.0 5.0))
    (fun g ->
      let problem =
        Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:g ~params ()
      in
      let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
      Float.abs (Deconv.Constraints.residual_conservation params basis estimate.Deconv.Solver.alpha)
        < 1e-5
      && Float.abs
           (Deconv.Constraints.residual_rate_continuity params basis estimate.Deconv.Solver.alpha)
         < 1e-5)

let prop_solver_scale_equivariant =
  (* Scaling the data scales the estimate: the estimator is positively
     homogeneous (all constraints are homogeneous, the penalty quadratic). *)
  qcheck ~count:10 "estimator scale equivariance"
    QCheck2.Gen.(pair (array_size (return 7) (float_range 0.5 5.0)) (float_range 0.5 4.0))
    (fun (g, scale) ->
      let solve data =
        let problem =
          Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:data ~params ()
        in
        (Deconv.Solver.solve ~lambda:1e-3 problem).Deconv.Solver.profile
      in
      let f1 = solve g in
      let f2 = solve (Vec.scale scale g) in
      (* lambda is not rescaled, so demand only approximate equivariance. *)
      let rel_err = Stats.rmse (Vec.scale scale f1) f2 /. Float.max 1e-9 (Vec.norm_inf f2) in
      rel_err < 0.05)

let prop_qp_optimality =
  (* Random feasible perturbations of the QP solution never decrease the
     objective. *)
  qcheck ~count:25 "QP solution is optimal among feasible perturbations"
    QCheck2.Gen.(pair (int_range 1 100000) (float_range 0.01 0.5))
    (fun (seed, step) ->
      let rng = Rng.create seed in
      let n = 5 in
      let base = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let h = Mat.add (Mat.gram base) (Mat.identity n) in
      let g = Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
      let solution =
        Optimize.Qp.solve
          { h; g; ineq = Some (Mat.identity n, Vec.zeros n) }
      in
      let objective x = (0.5 *. Vec.dot x (Mat.mv h x)) +. Vec.dot g x in
      let x = solution.Optimize.Qp.x in
      let ok = ref true in
      for _ = 1 to 10 do
        let direction = Array.init n (fun _ -> Rng.normal rng ~mean:0.0 ~std:step) in
        let candidate = Array.mapi (fun i v -> Float.max 0.0 (v +. direction.(i))) x in
        if objective candidate < objective x -. 1e-7 then ok := false
      done;
      !ok)

let prop_noise_weighted_residuals_standard =
  (* Standardized residuals of the noise model have unit variance. *)
  qcheck ~count:10 "noise sigmas standardize residuals"
    QCheck2.Gen.(pair (int_range 1 100000) (float_range 0.02 0.3))
    (fun (seed, level) ->
      let rng = Rng.create seed in
      let g = Array.init 4000 (fun i -> 2.0 +. Float.sin (0.01 *. float_of_int i)) in
      let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction level) rng g in
      let z = Array.init 4000 (fun i -> (noisy.(i) -. g.(i)) /. sigmas.(i)) in
      Float.abs (Stats.std z -. 1.0) < 0.08)

let prop_volume_partition =
  (* Daughter volumes always partition the mother exactly. *)
  qcheck ~count:100 "volume partition invariant"
    QCheck2.Gen.(pair (float_range 0.05 0.6) (float_range 0.5 3.0))
    (fun (phi_sst, v0) ->
      let v = Cellpop.Volume.smooth ~v0 ~phi_sst in
      Float.abs (v 1.0 -. (v 0.0 +. v phi_sst)) < 1e-9 *. v0)

let prop_population_conserves_phase_invariant =
  qcheck ~count:10 "population phases always in [0,1)"
    QCheck2.Gen.(pair (int_range 1 100000) (float_range 10.0 400.0))
    (fun (seed, t_end) ->
      let snapshots =
        Cellpop.Population.simulate params ~rng:(Rng.create seed) ~n0:100 ~times:[| 0.0; t_end |]
      in
      Array.for_all
        (fun (c : Cellpop.Cell.t) -> c.Cellpop.Cell.phase >= 0.0 && c.Cellpop.Cell.phase < 1.0)
        snapshots.(1).Cellpop.Population.cells)

let prop_rl_iteration_preserves_flux =
  (* Richardson-Lucy updates preserve total predicted signal reasonably:
     the fitted values stay within the data's convex range. *)
  qcheck ~count:10 "RL fitted values bounded by data range"
    QCheck2.Gen.(array_size (return 7) (float_range 0.5 5.0))
    (fun g ->
      let result =
        Deconv.Richardson_lucy.deconvolve ~iterations:50 (Lazy.force kernel) ~measurements:g ()
      in
      Array.for_all
        (fun v -> v >= 0.0 && v <= 2.0 *. Vec.max g)
        result.Deconv.Richardson_lucy.fitted)

let test_growth_rate_matches_euler_lotka () =
  let p = { params with Cellpop.Params.cv_cycle = 0.02; cv_sst = 0.02 } in
  let predicted = Cellpop.Population.euler_lotka_rate p in
  (* Doubling faster than a full cycle but slower than T(1-s). *)
  let doubling = log 2.0 /. predicted in
  check_true "doubling time between T(1-s) and T"
    (doubling > 150.0 *. 0.85 *. 0.9 && doubling < 150.0);
  let times = Vec.linspace 0.0 700.0 15 in
  let snapshots = Cellpop.Population.simulate p ~rng:(Rng.create 2101) ~n0:2000 ~times in
  let measured = Cellpop.Population.growth_rate snapshots in
  check_rel ~tol:0.06 "simulation matches branching-process theory" predicted measured

let test_growth_rate_increases_with_early_transition () =
  (* Larger phi_sst -> stalked daughters skip more of the cycle -> faster
     population growth. *)
  let rate mu = Cellpop.Population.euler_lotka_rate { params with Cellpop.Params.mu_sst = mu } in
  check_true "monotone in transition phase" (rate 0.25 > rate 0.15 && rate 0.15 > rate 0.05)

let tests =
  [
    ( "properties",
      [
        prop_kernel_normalized_random_params;
        prop_forward_monotone_in_profile;
        prop_forward_bounds;
        prop_solver_positivity_random_data;
        prop_solver_constraints_random_data;
        prop_solver_scale_equivariant;
        prop_qp_optimality;
        prop_noise_weighted_residuals_standard;
        prop_volume_partition;
        prop_population_conserves_phase_invariant;
        prop_rl_iteration_preserves_flux;
      ] );
    ( "growth",
      [
        case "Euler-Lotka growth rate" test_growth_rate_matches_euler_lotka;
        case "growth monotone in transition phase" test_growth_rate_increases_with_early_transition;
      ] );
  ]
