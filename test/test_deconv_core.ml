(* Tests for Forward, Constraints, Noise and Metrics — the building blocks
   of the deconvolution estimator. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0; 180.0 |]

let kernel =
  lazy (Cellpop.Kernel.estimate params ~rng:(Rng.create 600) ~n_cells:2500 ~times ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:10

(* --- Forward --- *)

let test_forward_rows_sum_to_one () =
  let a = Deconv.Forward.matrix_grid (Lazy.force kernel) in
  for m = 0 to a.Mat.rows - 1 do
    check_close ~tol:1e-10 "row sum" 1.0 (Vec.sum (Mat.row a m))
  done

let test_forward_matrix_grid_applies () =
  let k = Lazy.force kernel in
  let f = Array.init 101 (fun j -> Float.sin (0.2 *. float_of_int j) +. 2.0) in
  let via_matrix = Mat.mv (Deconv.Forward.matrix_grid k) f in
  let via_kernel = Cellpop.Kernel.integrate_profile k f in
  check_vec ~tol:1e-10 "matrix application" via_kernel via_matrix

let test_forward_basis_factorization () =
  let k = Lazy.force kernel in
  let ab = Deconv.Forward.matrix_basis k basis in
  let expected = Mat.matmul (Deconv.Forward.matrix_grid k) (Spline.Basis.design basis k.Cellpop.Kernel.phases) in
  check_true "A_basis = A_grid design" (mat_approx_equal ~tol:1e-10 expected ab)

let test_forward_apply_fn () =
  let k = Lazy.force kernel in
  let profile phi = 1.0 +. phi in
  let from_fn = Deconv.Forward.apply_fn k profile in
  let from_samples = Cellpop.Kernel.integrate_profile k (Array.map profile k.Cellpop.Kernel.phases) in
  check_vec ~tol:1e-12 "apply_fn = apply on samples" from_samples from_fn

let test_forward_damps_oscillation () =
  (* Asynchrony damps a fast phase oscillation: population amplitude is well
     below single-cell amplitude at late times when phases have spread. *)
  let k = Lazy.force kernel in
  let profile phi = 1.0 +. Float.sin (6.0 *. Float.pi *. phi) in
  let g = Deconv.Forward.apply_fn k profile in
  let late = Array.sub g 3 4 in
  check_true "late-time damping" (Vec.max late -. Vec.min late < 1.2)

(* --- Constraints --- *)

let test_beta0 () =
  (* beta0 = E[0.4/(1-phi_sst)] with phi_sst ~ N(0.15, 0.0195): close to
     0.4/0.85 with a small positive Jensen correction. *)
  let b0 = beta0 params in
  check_true "beta0 magnitude" (b0 > 0.4 /. 0.85 && b0 < 0.4 /. 0.85 *. 1.01)

let test_density_integral_of_one () =
  check_close ~tol:1e-9 "p integrates to 1" 1.0
    (Deconv.Constraints.density_integral params (fun _ -> 1.0))

let test_density_integral_mean () =
  check_close ~tol:1e-9 "E[phi_sst]" 0.15
    (Deconv.Constraints.density_integral params (fun phi -> phi))

let test_conservation_row_values () =
  (* On the constant basis function the conservation functional is
     1 - 0.4 - 0.6 = 0; on the linear one it is 1 - 0.6 E[phi_sst]. *)
  let row = Deconv.Constraints.conservation_row params basis in
  check_close ~tol:1e-9 "constant annihilated" 0.0 row.(0);
  check_close ~tol:1e-9 "linear value" (1.0 -. (0.6 *. 0.15)) row.(1)

let test_rate_row_values () =
  (* On the constant: -beta0. On the linear: beta0 - E[beta phi] - 0.4 - 0.6 + 1. *)
  let row = Deconv.Constraints.rate_continuity_row params basis in
  let b0 = beta0 params in
  check_close ~tol:1e-9 "constant gives -beta0" (-.b0) row.(0);
  let e_beta_phi =
    Deconv.Constraints.density_integral params (fun phi -> 0.4 /. (1.0 -. phi) *. phi)
  in
  check_close ~tol:1e-9 "linear value" (b0 -. e_beta_phi -. 0.4 -. 0.6 +. 1.0) row.(1)

let test_residual_functions () =
  let alpha = Array.init basis.Spline.Basis.size (fun i -> float_of_int (i + 1)) in
  let row = Deconv.Constraints.conservation_row params basis in
  check_close ~tol:1e-12 "conservation residual = row dot alpha" (Vec.dot row alpha)
    (residual_conservation params basis alpha);
  let row2 = Deconv.Constraints.rate_continuity_row params basis in
  check_close ~tol:1e-12 "rate residual = row dot alpha" (Vec.dot row2 alpha)
    (residual_rate_continuity params basis alpha)

let test_positivity_rows () =
  let grid = Vec.linspace 0.0 1.0 21 in
  let rows = Deconv.Constraints.positivity_rows basis ~grid in
  Alcotest.(check (pair int int)) "dims" (21, 10) (Mat.dims rows);
  check_close ~tol:1e-12 "entries are basis evals" (basis.Spline.Basis.eval 3 grid.(7))
    (Mat.get rows 7 3)

(* Bit-identity oracles for the tabulated quadrature: the density is
   sampled once on the Simpson nodes and each integrand on the same nodes,
   which must reproduce composite Simpson on h(φ)·p(φ) bit for bit. The
   oracle is Integrate.simpson over the same ±10σ window and panel count. *)

let bspline12 = Spline.Bspline.create ~lo:0.0 ~hi:1.0 ~num_basis:12

let simpson_density h =
  let mu = params.Cellpop.Params.mu_sst in
  let sigma = Cellpop.Params.sst_std params in
  let a = Float.max 0.0 (mu -. (10.0 *. sigma)) in
  let b = Float.min (1.0 -. 1e-9) (mu +. (10.0 *. sigma)) in
  Integrate.simpson
    (fun phi -> h phi *. Cellpop.Params.sst_density params phi)
    ~a ~b ~n:2000

let beta phi = (1.0 -. Cellpop.Params.st_volume_fraction) /. (1.0 -. phi)

let check_bits msg expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)) then
    Alcotest.failf "%s: %h vs %h" msg expected actual

let check_bits_vec msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s[%d]" msg i) x actual.(i)) expected

let test_density_integral_is_simpson () =
  let same name h =
    check_bits name (simpson_density h) (Deconv.Constraints.density_integral params h)
  in
  same "1" (fun _ -> 1.0);
  same "phi" (fun phi -> phi);
  for i = 0 to bspline12.Spline.Basis.size - 1 do
    let psi = bspline12.Spline.Basis.eval i in
    let psi' = bspline12.Spline.Basis.deriv i in
    same (Printf.sprintf "psi_%d" i) psi;
    same (Printf.sprintf "beta psi_%d" i) (fun phi -> beta phi *. psi phi);
    same (Printf.sprintf "psi'_%d" i) psi'
  done

let test_rows_are_simpson () =
  (* The rows as written before tabulation, one Simpson call per integral. *)
  let sw = Cellpop.Params.sw_volume_fraction in
  let st = Cellpop.Params.st_volume_fraction in
  let b0 = simpson_density beta in
  let n = bspline12.Spline.Basis.size in
  let conservation =
    Array.init n (fun i ->
        let psi = bspline12.Spline.Basis.eval i in
        psi 1.0 -. (sw *. psi 0.0) -. (st *. simpson_density psi))
  in
  let rate =
    Array.init n (fun i ->
        let psi = bspline12.Spline.Basis.eval i in
        let psi' = bspline12.Spline.Basis.deriv i in
        (b0 *. psi 1.0) -. (b0 *. psi 0.0)
        -. simpson_density (fun phi -> beta phi *. psi phi)
        -. (sw *. psi' 0.0)
        -. (st *. simpson_density psi')
        +. psi' 1.0)
  in
  check_bits "beta0" b0 (beta0 params);
  check_bits_vec "conservation row" conservation
    (Deconv.Constraints.conservation_row params bspline12);
  check_bits_vec "rate-continuity row" rate
    (Deconv.Constraints.rate_continuity_row params bspline12)

let test_problem_blocks () =
  let k = Lazy.force kernel in
  let measurements = Vec.zeros (Array.length times) in
  let create ?use_positivity ?use_conservation ?use_rate_continuity () =
    Deconv.Problem.create ?use_positivity ?use_conservation ?use_rate_continuity ~kernel:k
      ~basis:bspline12 ~measurements ~params ()
  in
  let conservation = Deconv.Constraints.conservation_row params bspline12 in
  let rate = Deconv.Constraints.rate_continuity_row params bspline12 in
  let grid = Vec.concat [ [| 0.0 |]; k.Cellpop.Kernel.phases; [| 1.0 |] ] in
  let positivity = Deconv.Constraints.positivity_rows bspline12 ~grid in
  let rows_of name = function
    | Some (m : Mat.t) -> Array.init m.Mat.rows (Mat.row m)
    | None -> Alcotest.failf "%s: block missing" name
  in
  let full = create () in
  (match rows_of "equality" full.Deconv.Problem.equality with
  | [| c; r |] ->
    check_bits_vec "equality row 0 is conservation" conservation c;
    check_bits_vec "equality row 1 is rate continuity" rate r
  | rows -> Alcotest.failf "expected 2 equality rows, got %d" (Array.length rows));
  (* The solve runs on the free coefficients of α = Zβ, so the stored
     positivity block is Ψ·Z with Z the null space of the equality rows. *)
  let z = Linalg.null_space (Mat.of_rows [| conservation; rate |]) in
  check_true "null space of the equality rows"
    (mat_approx_equal ~tol:0.0 z full.Deconv.Problem.null_space);
  let reduced = Mat.matmul positivity z in
  let pos = rows_of "positivity" full.Deconv.Problem.positivity in
  Alcotest.(check int) "positivity rows" positivity.Mat.rows (Array.length pos);
  Array.iteri
    (fun g row -> check_bits_vec (Printf.sprintf "positivity row %d" g) (Mat.row reduced g) row)
    pos;
  (match rows_of "equality" (create ~use_conservation:false ()).Deconv.Problem.equality with
  | [| r |] -> check_bits_vec "conservation off leaves rate continuity" rate r
  | rows -> Alcotest.failf "expected 1 equality row, got %d" (Array.length rows));
  (match rows_of "equality" (create ~use_rate_continuity:false ()).Deconv.Problem.equality with
  | [| c |] -> check_bits_vec "rate continuity off leaves conservation" conservation c
  | rows -> Alcotest.failf "expected 1 equality row, got %d" (Array.length rows));
  let unconstrained = create ~use_conservation:false ~use_rate_continuity:false () in
  check_true "both equalities off: no block, identity null space"
    (Option.is_none unconstrained.Deconv.Problem.equality
    && mat_approx_equal ~tol:0.0 (Mat.identity bspline12.Spline.Basis.size)
         unconstrained.Deconv.Problem.null_space);
  (match unconstrained.Deconv.Problem.positivity with
  | Some stored ->
    check_true "both equalities off: positivity is Ψ" (mat_approx_equal ~tol:0.0 positivity stored)
  | None -> Alcotest.fail "positivity block missing");
  check_true "positivity off: no block"
    (Option.is_none (create ~use_positivity:false ()).Deconv.Problem.positivity)

(* --- Noise --- *)

let test_no_noise () =
  let g = [| 1.0; 2.0; 3.0 |] in
  let noisy, sigmas = Deconv.Noise.apply Deconv.Noise.No_noise (Rng.create 1) g in
  check_vec "identity" g noisy;
  check_vec "unit sigmas" [| 1.0; 1.0; 1.0 |] sigmas

let test_gaussian_fraction_statistics () =
  let rng = Rng.create 601 in
  let g = Array.make 20_000 10.0 in
  let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.10) rng g in
  check_close ~tol:0.02 "mean preserved" 10.0 (Stats.mean noisy);
  check_close ~tol:0.02 "std is 10%" 1.0 (Stats.std noisy);
  check_close "sigma reported" 1.0 sigmas.(0)

let test_gaussian_fraction_scales_with_magnitude () =
  let rng = Rng.create 602 in
  let g = [| 1.0; 100.0 |] in
  let _, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.05) rng g in
  check_close ~tol:1e-12 "large point sigma = 5% of value" 5.0 sigmas.(1);
  (* The small point hits the floor: 0.005 * max|G| = 0.5 > 0.05 * 1. *)
  check_close ~tol:1e-12 "small point sigma floored" 0.5 sigmas.(0)

let test_sigma_floor () =
  (* Zero measurements do not produce zero sigmas. *)
  let rng = Rng.create 603 in
  let g = [| 0.0; 5.0 |] in
  let _, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.1) rng g in
  check_true "floored sigma" (sigmas.(0) > 0.0)

let test_gaussian_absolute () =
  let rng = Rng.create 604 in
  let g = Array.make 20_000 5.0 in
  let noisy, sigmas = Deconv.Noise.apply (Deconv.Noise.Gaussian_absolute 0.3) rng g in
  check_close ~tol:0.01 "absolute noise std" 0.3 (Stats.std noisy);
  check_close "constant sigmas" 0.3 sigmas.(0)

let test_lognormal_mean_preserving () =
  let rng = Rng.create 605 in
  let g = Array.make 50_000 4.0 in
  let noisy, _ = Deconv.Noise.apply (Deconv.Noise.Multiplicative_lognormal 0.2) rng g in
  check_close ~tol:0.03 "mean preserved" 4.0 (Stats.mean noisy);
  Array.iter (fun v -> check_true "multiplicative noise keeps sign" (v > 0.0)) noisy

let test_noise_deterministic () =
  let run () = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.1) (Rng.create 9) [| 1.0; 2.0 |] in
  let a, _ = run () and b, _ = run () in
  check_vec ~tol:0.0 "same noise from same seed" a b

let test_noise_to_string () =
  Alcotest.(check string) "describes the model" "gaussian 10% of magnitude"
    (Deconv.Noise.to_string (Deconv.Noise.Gaussian_fraction 0.10))

(* --- Metrics --- *)

let test_metrics_identity () =
  let x = [| 1.0; 2.0; 3.0 |] in
  let c = Deconv.Metrics.compare ~truth:x ~estimate:x in
  check_close "rmse 0" 0.0 c.Deconv.Metrics.rmse;
  check_close "mae 0" 0.0 c.Deconv.Metrics.mae;
  check_close ~tol:1e-12 "corr 1" 1.0 c.Deconv.Metrics.correlation

let test_metrics_values () =
  let truth = [| 0.0; 2.0 |] and est = [| 1.0; 2.0 |] in
  let c = Deconv.Metrics.compare ~truth ~estimate:est in
  check_close ~tol:1e-12 "rmse" (1.0 /. sqrt 2.0) c.Deconv.Metrics.rmse;
  check_close ~tol:1e-12 "nrmse" (1.0 /. sqrt 2.0 /. 2.0) c.Deconv.Metrics.nrmse;
  check_close ~tol:1e-12 "max" 1.0 c.Deconv.Metrics.max_abs

let tests =
  [
    ( "forward",
      [
        case "rows sum to one" test_forward_rows_sum_to_one;
        case "matrix application" test_forward_matrix_grid_applies;
        case "basis factorization" test_forward_basis_factorization;
        case "apply_fn" test_forward_apply_fn;
        case "asynchrony damps oscillations" test_forward_damps_oscillation;
      ] );
    ( "constraints",
      [
        case "beta0" test_beta0;
        case "density integral normalization" test_density_integral_of_one;
        case "density integral mean" test_density_integral_mean;
        case "conservation row closed forms" test_conservation_row_values;
        case "rate row closed forms" test_rate_row_values;
        case "residual helpers" test_residual_functions;
        case "positivity rows" test_positivity_rows;
        case "density integral is Simpson bitwise" test_density_integral_is_simpson;
        case "rows are Simpson bitwise" test_rows_are_simpson;
        case "problem carries the blocks" test_problem_blocks;
      ] );
    ( "noise",
      [
        case "no noise" test_no_noise;
        case "gaussian fraction statistics" test_gaussian_fraction_statistics;
        case "sigma scales with magnitude" test_gaussian_fraction_scales_with_magnitude;
        case "sigma floor" test_sigma_floor;
        case "gaussian absolute" test_gaussian_absolute;
        case "lognormal mean preserving" test_lognormal_mean_preserving;
        case "deterministic" test_noise_deterministic;
        case "to_string" test_noise_to_string;
      ] );
    ( "metrics",
      [
        case "identity comparison" test_metrics_identity;
        case "known values" test_metrics_values;
      ] );
  ]
