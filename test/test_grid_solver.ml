open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 2600) ~n_cells:2000 ~times
       ~n_phi:101)

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()

let test_second_difference_annihilates_lines () =
  let d2 = Deconv.Grid_solver.second_difference 20 ~bin_width:0.05 in
  Alcotest.(check (pair int int)) "dims" (18, 20) (Mat.dims d2);
  let line = Array.init 20 (fun i -> 3.0 +. (2.0 *. float_of_int i)) in
  check_close ~tol:1e-9 "affine annihilated" 0.0 (Vec.norm_inf (Mat.mv d2 line))

let test_second_difference_scaling () =
  (* ||D f||^2 approximates the integral of f''^2: for f = x^2 on [0,1],
     f'' = 2, integral = 4. *)
  let n = 201 in
  let h = 1.0 /. float_of_int n in
  let d2 = Deconv.Grid_solver.second_difference n ~bin_width:h in
  let f = Array.init n (fun i -> let x = (float_of_int i +. 0.5) *. h in x *. x) in
  let rough = Mat.mv d2 f in
  check_rel ~tol:0.03 "approximates int f''^2" 4.0 (Vec.dot rough rough)

let test_grid_recovery () =
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) pulse in
  let est = Deconv.Grid_solver.solve ~lambda:1e-4 (Lazy.force kernel) ~measurements:clean () in
  let truth = Array.map pulse (Lazy.force kernel).Cellpop.Kernel.phases in
  check_true "grid solver recovers" (Stats.correlation truth est.Deconv.Grid_solver.profile > 0.98)

let test_grid_positivity () =
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) pulse in
  let noisy, sigmas =
    Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.15) (Rng.create 2601) clean
  in
  let est = Deconv.Grid_solver.solve ~lambda:1e-4 (Lazy.force kernel) ~measurements:noisy ~sigmas () in
  Array.iter (fun v -> check_true "nonnegative" (v >= -1e-7)) est.Deconv.Grid_solver.profile;
  let unconstrained =
    Deconv.Grid_solver.solve ~lambda:1e-5 ~use_positivity:false (Lazy.force kernel)
      ~measurements:noisy ~sigmas ()
  in
  check_true "unconstrained dips negative" (Vec.min unconstrained.Deconv.Grid_solver.profile < 0.0)

let test_grid_lambda_tradeoff () =
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) pulse in
  let small = Deconv.Grid_solver.solve ~lambda:1e-6 (Lazy.force kernel) ~measurements:clean () in
  let large = Deconv.Grid_solver.solve ~lambda:1e-1 (Lazy.force kernel) ~measurements:clean () in
  check_true "roughness decreases with lambda"
    (large.Deconv.Grid_solver.roughness < small.Deconv.Grid_solver.roughness);
  check_true "misfit increases with lambda"
    (large.Deconv.Grid_solver.data_misfit >= small.Deconv.Grid_solver.data_misfit)

let test_grid_matches_spline_scale () =
  (* The two representations should agree broadly on the same problem. *)
  let clean = Deconv.Forward.apply_fn (Lazy.force kernel) pulse in
  let grid = Deconv.Grid_solver.solve ~lambda:1e-4 (Lazy.force kernel) ~measurements:clean () in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  let problem =
    Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis ~measurements:clean ~params ()
  in
  let spline = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_true "representations agree"
    (Stats.correlation grid.Deconv.Grid_solver.profile spline.Deconv.Solver.profile > 0.97)

(* A narrow pulse on a 201-phase grid at λ = 1e-8: the estimate is zero
   on most of the grid, and the dual active-set method adds those bins one
   pass at a time. It needs more than 100 passes, so a flat cap of 100
   would stall it; the default cap, 2·(n + m) = 804 passes, does not. *)
let test_grid_narrow_pulse_converges () =
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 2600) ~n_cells:2000 ~times
      ~n_phi:201
  in
  let narrow = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.05 ~height:4.0 () in
  let clean = Deconv.Forward.apply_fn kernel narrow in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let passes =
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.disable ();
        Obs.Metrics.reset ())
      (fun () ->
        let est = Deconv.Grid_solver.solve ~lambda:1e-8 kernel ~measurements:clean () in
        let profile = est.Deconv.Grid_solver.profile in
        check_true
          (Printf.sprintf "nonnegative to rounding (min %g)" (Vec.min profile))
          (Vec.min profile >= -1e-12 *. Float.max 1.0 (Vec.norm_inf profile));
        List.fold_left
          (fun acc (m : Obs.Metrics.snapshot) ->
            if String.equal m.Obs.Metrics.name "qp.iterations" then
              Option.value ~default:acc (List.assoc_opt "value" m.Obs.Metrics.fields)
            else acc)
          0.0 (Obs.Metrics.snapshot ()))
  in
  check_true (Printf.sprintf "more passes than a flat cap of 100 (%g)" passes) (passes > 100.0)

let tests =
  [
    ( "grid-solver",
      [
        case "second difference annihilates lines" test_second_difference_annihilates_lines;
        case "second difference scaling" test_second_difference_scaling;
        case "recovery" test_grid_recovery;
        case "positivity" test_grid_positivity;
        case "lambda tradeoff" test_grid_lambda_tradeoff;
        case "agrees with spline estimator" test_grid_matches_spline_scale;
        case "narrow pulse converges" test_grid_narrow_pulse_converges;
      ] );
  ]
