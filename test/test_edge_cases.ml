(* Additional edge-case and property coverage across the stack. *)

open Numerics
open Testutil

(* --- Ascii plot --- *)

let test_ascii_multi_series () =
  let xs = Vec.linspace 0.0 1.0 20 in
  let s =
    capture @@ fun oc ->
    Dataio.Ascii_plot.output ~width:40 ~height:12 oc
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
    capture @@ fun oc ->
    Dataio.Ascii_plot.output oc
      [ { Dataio.Ascii_plot.label = "flat"; glyph = '*'; xs = [| 0.0; 1.0 |]; ys = [| 2.0; 2.0 |] } ]
  in
  check_true "renders" (String.contains s '*')

let test_ascii_single_point () =
  let s =
    capture @@ fun oc ->
    Dataio.Ascii_plot.output oc
      [ { Dataio.Ascii_plot.label = "dot"; glyph = 'o'; xs = [| 0.5 |]; ys = [| 1.0 |] } ]
  in
  check_true "single point renders" (String.contains s 'o')

(* --- Table --- *)

let test_table_precision () =
  let t = Dataio.Table.create ~title:"p" ~headers:[ "v" ] in
  Dataio.Table.add_row t [| 1.23456789 |];
  let s2 = capture (fun oc -> Dataio.Table.output ~precision:2 oc t) in
  let s6 = capture (fun oc -> Dataio.Table.output ~precision:6 oc t) in
  check_true "low precision shorter" (String.length s2 < String.length s6)

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
    (residual_rate_continuity params basis estimate.Deconv.Solver.alpha)

let tests =
  [
    ( "edge-cases",
      [
        case "ascii multi series" test_ascii_multi_series;
        case "ascii constant series" test_ascii_constant_series;
        case "ascii single point" test_ascii_single_point;
        case "table precision" test_table_precision;
        case "classify with empty boundaries" test_classify_with_empty_boundaries;
        case "zero-level noise" test_zero_fraction_noise_identity_like;
        case "lognormal factor" test_lognormal_factor;
        case "solver with rate constraint only" test_solver_rate_only;
      ] );
  ]
