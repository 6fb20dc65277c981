(* Additional edge-case and property coverage across the stack. *)

open Numerics
open Testutil

(* --- Ascii plot --- *)

let test_ascii_multi_series () =
  let xs = Vec.linspace 0.0 1.0 20 in
  let s =
    Dataio.Ascii_plot.render ~width:40 ~height:12
      [
        { Dataio.Ascii_plot.label = "up"; glyph = 'u'; xs; ys = xs };
        { Dataio.Ascii_plot.label = "down"; glyph = 'd'; xs; ys = Array.map (fun x -> 1.0 -. x) xs };
      ]
  in
  check_true "both glyphs present" (String.contains s 'u' && String.contains s 'd');
  (* Later series draws over earlier on collisions (midpoint). *)
  check_true "legend lines" (String.length s > 100)

let test_ascii_constant_series () =
  (* Constant y must not divide by zero. *)
  let s =
    Dataio.Ascii_plot.render
      [ { Dataio.Ascii_plot.label = "flat"; glyph = '*'; xs = [| 0.0; 1.0 |]; ys = [| 2.0; 2.0 |] } ]
  in
  check_true "renders" (String.contains s '*')

let test_ascii_single_point () =
  let s =
    Dataio.Ascii_plot.render
      [ { Dataio.Ascii_plot.label = "dot"; glyph = 'o'; xs = [| 0.5 |]; ys = [| 1.0 |] } ]
  in
  check_true "single point renders" (String.contains s 'o')

(* --- Table --- *)

let test_table_precision () =
  let t = Dataio.Table.create ~title:"p" ~headers:[ "v" ] in
  Dataio.Table.add_row t [| 1.23456789 |];
  let s2 = Dataio.Table.to_string ~precision:2 t in
  let s6 = Dataio.Table.to_string ~precision:6 t in
  check_true "low precision shorter" (String.length s2 < String.length s6)

(* --- Interpolate failure modes --- *)

let test_periodic_requires_matching_endpoints () =
  let x = Vec.linspace 0.0 1.0 5 in
  let y = [| 0.0; 1.0; 0.5; 1.0; 0.7 |] in
  (* y.(0) <> y.(4): assertion must fire. *)
  (match Spline.Interpolate.periodic ~x ~y with
  | _ -> Alcotest.fail "non-periodic data accepted"
  | exception Assert_failure _ -> ())

let test_natural_requires_sorted () =
  (match Spline.Interpolate.natural ~x:[| 0.0; 0.5; 0.3 |] ~y:[| 1.0; 2.0; 3.0 |] with
  | _ -> Alcotest.fail "unsorted grid accepted"
  | exception Assert_failure _ -> ())

(* --- FFT properties --- *)

let prop_fft_linearity =
  qcheck ~count:30 "fft linearity" (QCheck2.Gen.int_range 1 1000) (fun seed ->
      let rng = Rng.create seed in
      let n = 32 in
      let mk () =
        Array.init n (fun _ ->
            { Complex.re = Rng.uniform rng ~lo:(-1.0) ~hi:1.0; im = 0.0 })
      in
      let a = mk () and b = mk () in
      let sum = Array.init n (fun i -> Complex.add a.(i) b.(i)) in
      let fa = Fft.fft a and fb = Fft.fft b and fsum = Fft.fft sum in
      let ok = ref true in
      for i = 0 to n - 1 do
        let expected = Complex.add fa.(i) fb.(i) in
        if Complex.norm (Complex.sub expected fsum.(i)) > 1e-9 then ok := false
      done;
      !ok)

let prop_convolution_commutative =
  qcheck ~count:30 "convolution commutative"
    QCheck2.Gen.(pair (array_size (int_range 1 12) (float_range (-2.0) 2.0))
                   (array_size (int_range 1 12) (float_range (-2.0) 2.0)))
    (fun (a, b) -> Vec.approx_equal ~tol:1e-8 (Fft.convolve a b) (Fft.convolve b a))

(* --- Spline interpolation property --- *)

let prop_interpolation_exact_at_knots =
  qcheck ~count:50 "natural spline interpolates any data"
    QCheck2.Gen.(array_size (int_range 3 15) (float_range (-5.0) 5.0))
    (fun y ->
      let n = Array.length y in
      let x = Array.init n float_of_int in
      let sp = Spline.Interpolate.natural ~x ~y in
      let ok = ref true in
      Array.iteri
        (fun i xi -> if Float.abs (Spline.Interpolate.eval sp xi -. y.(i)) > 1e-9 then ok := false)
        x;
      !ok)

(* --- Batch/gene edge cases --- *)

let test_classify_with_empty_boundaries () =
  let params = Cellpop.Params.paper_2011 in
  let kernel =
    Cellpop.Kernel.estimate params ~rng:(Rng.create 3000) ~n_cells:300
      ~times:[| 0.0; 60.0; 120.0 |] ~n_phi:51
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:8 in
  let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
  let g = Deconv.Forward.apply_fn kernel (fun phi -> 1.0 +. phi) in
  let estimate =
    match Deconv.Batch.solve_gene_result batch ~lambda:(`Fixed 1e-3) ~measurements:g () with
    | Ok est -> est
    | Error e -> Alcotest.failf "batch gene failed: %s" (Robust.Error.to_string e)
  in
  (* Zero boundaries: everything lands in window 0. *)
  let classified = Deconv.Batch.classify_by_peak batch [| estimate |] ~boundaries:[||] in
  Alcotest.(check (array int)) "single window" [| 0 |] classified

(* --- Noise model edge: zero-level noise --- *)

let test_zero_fraction_noise_identity_like () =
  let g = [| 1.0; 2.0; 3.0 |] in
  let noisy, _ = Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.0) (Rng.create 1) g in
  check_vec ~tol:1e-12 "no noise at level 0" g noisy

(* --- Rng.lognormal_factor --- *)

let test_lognormal_factor () =
  let rng = Rng.create 3100 in
  check_close "cv zero gives 1" 1.0 (Rng.lognormal_factor rng ~cv:0.0);
  let xs = Array.init 40_000 (fun _ -> Rng.lognormal_factor rng ~cv:0.25) in
  check_close ~tol:0.01 "mean one" 1.0 (Stats.mean xs);
  check_close ~tol:0.01 "cv as requested" 0.25 (Stats.cv xs)

(* --- Solver with a single constraint family --- *)

let test_solver_rate_only () =
  let params = Cellpop.Params.paper_2011 in
  let times = Array.init 7 (fun i -> 30.0 *. float_of_int i) in
  let kernel =
    Cellpop.Kernel.estimate params ~rng:(Rng.create 3200) ~n_cells:500 ~times ~n_phi:51
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:8 in
  let g = Deconv.Forward.apply_fn kernel (fun phi -> 1.0 +. Float.sin (3.0 *. phi)) in
  let problem =
    Deconv.Problem.create ~use_conservation:false ~use_rate_continuity:true ~use_positivity:false
      ~kernel ~basis ~measurements:g ~params ()
  in
  let estimate = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_close ~tol:1e-6 "rate constraint satisfied" 0.0
    (Deconv.Constraints.residual_rate_continuity params basis estimate.Deconv.Solver.alpha)

let tests =
  [
    ( "edge-cases",
      [
        case "ascii multi series" test_ascii_multi_series;
        case "ascii constant series" test_ascii_constant_series;
        case "ascii single point" test_ascii_single_point;
        case "table precision" test_table_precision;
        case "periodic spline endpoint check" test_periodic_requires_matching_endpoints;
        case "natural spline sorted check" test_natural_requires_sorted;
        prop_fft_linearity;
        prop_convolution_commutative;
        prop_interpolation_exact_at_knots;
        case "classify with empty boundaries" test_classify_with_empty_boundaries;
        case "zero-level noise" test_zero_fraction_noise_identity_like;
        case "lognormal factor" test_lognormal_factor;
        case "solver with rate constraint only" test_solver_rate_only;
      ] );
  ]
