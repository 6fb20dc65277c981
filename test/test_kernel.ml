open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0; 180.0 |]

let kernel =
  lazy
    (Cellpop.Kernel.estimate params ~rng:(Rng.create 400) ~n_cells:3000 ~times ~n_phi:101)

let test_dimensions () =
  let k = Lazy.force kernel in
  Alcotest.(check int) "phase bins" 101 (Array.length k.Cellpop.Kernel.phases);
  Alcotest.(check (pair int int)) "q dims" (7, 101) (Mat.dims k.Cellpop.Kernel.q);
  check_close ~tol:1e-12 "bin width" (1.0 /. 101.0) k.Cellpop.Kernel.bin_width;
  check_close ~tol:1e-12 "first center" (0.5 /. 101.0) k.Cellpop.Kernel.phases.(0)

let test_normalization () =
  let k = Lazy.force kernel in
  check_true "every row integrates to 1" (Cellpop.Kernel.check_normalization k < 1e-10)

let test_nonnegative () =
  let k = Lazy.force kernel in
  Array.iter (fun q -> check_true "kernel nonnegative" (q >= 0.0)) k.Cellpop.Kernel.q.Mat.data

let test_early_support () =
  (* At t=0 a synchronized culture occupies only phases below ~phi_sst. *)
  let k = Lazy.force kernel in
  let row0 = Cellpop.Kernel.row k 0 in
  Array.iteri
    (fun j q ->
      if k.Cellpop.Kernel.phases.(j) > 0.3 then
        check_close ~tol:1e-12 "no mass at high phase at t=0" 0.0 q)
    row0

let test_support_spreads () =
  (* Later rows occupy more of the phase axis than the first row. *)
  let k = Lazy.force kernel in
  let support row = Array.fold_left (fun acc q -> if q > 1e-6 then acc + 1 else acc) 0 row in
  check_true "support grows"
    (support (Cellpop.Kernel.row k 3) > (2 * support (Cellpop.Kernel.row k 0)))

let test_integrate_constant_profile () =
  let k = Lazy.force kernel in
  let ones = Array.make 101 1.0 in
  let g = Cellpop.Kernel.integrate_profile k ones in
  Array.iter (fun v -> check_close ~tol:1e-10 "constant maps to constant" 1.0 v) g

let test_integrate_linearity () =
  let k = Lazy.force kernel in
  let f1 = Array.init 101 (fun j -> Float.sin (float_of_int j)) in
  let f2 = Array.init 101 (fun j -> Float.cos (float_of_int (2 * j))) in
  let combined = Cellpop.Kernel.integrate_profile k (Vec.add f1 f2) in
  let separate = Vec.add (Cellpop.Kernel.integrate_profile k f1) (Cellpop.Kernel.integrate_profile k f2) in
  check_vec ~tol:1e-9 "forward model linear" separate combined

let test_smoothing_preserves_normalization () =
  let smooth =
    Cellpop.Kernel.estimate ~smooth_window:7 params ~rng:(Rng.create 401) ~n_cells:2000 ~times
      ~n_phi:101
  in
  check_true "smoothed rows still normalized" (Cellpop.Kernel.check_normalization smooth < 1e-10)

let test_deterministic () =
  let build seed =
    Cellpop.Kernel.estimate params ~rng:(Rng.create seed) ~n_cells:500 ~times:[| 0.0; 60.0 |]
      ~n_phi:51
  in
  let a = build 7 and b = build 7 in
  check_true "same kernel from same seed"
    (mat_approx_equal ~tol:0.0 a.Cellpop.Kernel.q b.Cellpop.Kernel.q)

let test_kernel_against_monte_carlo_signal () =
  (* The discretized forward model matches a direct volume-weighted
     Monte-Carlo average of a smooth profile on the same population:
     [estimate] draws its population from the stream exactly as
     [Population.simulate] does. *)
  let snapshots = Cellpop.Population.simulate params ~rng:(Rng.create 403) ~n0:5000 ~times in
  let k = Cellpop.Kernel.estimate params ~rng:(Rng.create 403) ~n_cells:5000 ~times ~n_phi:201 in
  let profile phi = 1.0 +. Float.sin (2.0 *. Float.pi *. phi) in
  let from_kernel =
    Cellpop.Kernel.integrate_profile k (Array.map profile k.Cellpop.Kernel.phases)
  in
  let direct =
    Array.map (Cellpop.Population.mean_signal params (fun ~phi -> profile phi)) snapshots
  in
  Array.iteri
    (fun m v -> check_close ~tol:5e-3 (Printf.sprintf "t index %d" m) direct.(m) v)
    from_kernel

let test_mass_concentration_mid_experiment () =
  (* At t=75 min (half a cycle) the synchronized population concentrates
     near phase 0.5-0.7; check the mode lands there. *)
  let k = Lazy.force kernel in
  let row = Cellpop.Kernel.row k 3 in
  (* index 3 = 90 minutes *)
  let mode = k.Cellpop.Kernel.phases.(Vec.argmax row) in
  check_true "mode near expected phase" (mode > 0.4 && mode < 0.85)

let tests =
  [
    ( "kernel",
      [
        case "dimensions" test_dimensions;
        case "normalization" test_normalization;
        case "nonnegative" test_nonnegative;
        case "early support confined" test_early_support;
        case "support spreads over time" test_support_spreads;
        case "constant profile invariant" test_integrate_constant_profile;
        case "forward linearity" test_integrate_linearity;
        case "smoothing preserves normalization" test_smoothing_preserves_normalization;
        case "deterministic" test_deterministic;
        case "matches direct monte carlo" test_kernel_against_monte_carlo_signal;
        case "mid-experiment mass location" test_mass_concentration_mid_experiment;
      ] );
  ]
