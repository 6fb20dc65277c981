open Numerics
open Testutil

let test_probe_noiseless () =
  let probe = { Microarray.Probe.gain = 2.0; background = 0.5; noise_cv = 0.0; saturation = 100.0 } in
  let rng = Rng.create 1101 in
  check_close ~tol:1e-12 "affine response" 6.5
    (Microarray.Probe.measure probe rng ~concentration:3.0);
  check_close "saturation" 100.0 (Microarray.Probe.measure probe rng ~concentration:1e6)

let test_probe_noise_unbiased () =
  let probe = { Microarray.Probe.gain = 1.0; background = 0.0; noise_cv = 0.2; saturation = Float.infinity } in
  let rng = Rng.create 1102 in
  let xs = Array.init 30_000 (fun _ -> Microarray.Probe.measure probe rng ~concentration:10.0) in
  check_close ~tol:0.1 "lognormal noise mean-preserving" 10.0 (Stats.mean xs);
  check_close ~tol:0.02 "noise cv" 0.2 (Stats.cv xs)

let test_probe_draw_distribution () =
  let rng = Rng.create 1103 in
  let gains = Array.init 20_000 (fun _ -> (Microarray.Probe.draw rng).Microarray.Probe.gain) in
  check_close ~tol:0.02 "mean gain ~1" 1.0 (Stats.mean gains);
  check_close ~tol:0.03 "gain cv" 0.3 (Stats.cv gains)

let test_background_correct () =
  let m = Mat.of_rows [| [| 10.0; 20.0 |]; [| 11.0; 21.0 |]; [| 30.0; 40.0 |]; [| 12.0; 22.0 |] |] in
  let corrected = Microarray.Normalize.background_correct ~percentile:0.0 m in
  (* Column minima become the background. *)
  check_close "min removed col0" 0.0 (Mat.get corrected 0 0);
  check_close "col1 shift" 0.0 (Mat.get corrected 0 1);
  check_close "values shifted" 20.0 (Mat.get corrected 2 0);
  (* All entries nonnegative. *)
  Array.iter (fun v -> check_true "nonneg" (v >= 0.0)) corrected.Mat.data

let test_median_scale_aligns () =
  let m = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  let scaled = Microarray.Normalize.median_scale m in
  (* Column medians equalized. *)
  check_close ~tol:1e-12 "medians equal" (Stats.median (Mat.col scaled 0))
    (Stats.median (Mat.col scaled 1));
  (* Within-column ratios preserved. *)
  check_rel ~tol:1e-12 "shape preserved" 3.0 (Mat.get scaled 2 0 /. Mat.get scaled 0 0)

let test_quantile_normalization () =
  let m = Mat.of_rows [| [| 5.0; 50.0 |]; [| 2.0; 20.0 |]; [| 3.0; 90.0 |] |] in
  let q = Microarray.Normalize.quantile m in
  (* After quantile normalization both columns have identical sorted values. *)
  let sorted j =
    let c = Mat.col q j in
    Array.sort compare c;
    c
  in
  check_vec ~tol:1e-12 "identical distributions" (sorted 0) (sorted 1);
  (* Ranks preserved: row 0 is the largest in column 0. *)
  check_true "rank preserved col0" (Mat.get q 0 0 > Mat.get q 1 0);
  check_true "rank preserved col1" (Mat.get q 2 1 > Mat.get q 0 1)

let test_log2 () =
  let m = Mat.of_rows [| [| 1.0; 3.0 |] |] in
  let l = Microarray.Normalize.log2 m in
  check_close ~tol:1e-12 "log2(1+1)" 1.0 (Mat.get l 0 0);
  check_close ~tol:1e-12 "log2(3+1)" 2.0 (Mat.get l 0 1)

let make_timecourse seed =
  let times = Array.init 9 (fun i -> 20.0 *. float_of_int i) in
  let true_signals =
    Mat.of_rows
      [|
        Array.map (fun t -> 2.0 +. Float.sin (t /. 30.0)) times;
        Array.map (fun t -> 5.0 +. (2.0 *. Float.cos (t /. 40.0))) times;
        Array.map (fun _ -> 3.0) times;
      |]
  in
  let rng = Rng.create seed in
  let raw =
    Microarray.Timecourse.simulate ~replicates:4 rng ~gene_names:[| "g1"; "g2"; "g3" |] ~times
      ~true_signals
  in
  (times, true_signals, raw)

let test_timecourse_shapes () =
  let times, _, raw = make_timecourse 1104 in
  Alcotest.(check int) "replicates" 4 (Array.length raw.Microarray.Timecourse.replicates);
  (* 3 genes + 8 default control spots per chip. *)
  Alcotest.(check (pair int int)) "chip dims" (11, 9)
    (Mat.dims raw.Microarray.Timecourse.replicates.(0));
  check_vec "times kept" times raw.Microarray.Timecourse.times;
  Alcotest.(check int) "one probe per row" 11 (Array.length raw.Microarray.Timecourse.probes);
  (* Control spots measure (scaled) background only: far below gene spots. *)
  let chip = raw.Microarray.Timecourse.replicates.(0) in
  let gene_mean = Stats.mean (Mat.row chip 1) in
  let control_mean = Stats.mean (Mat.row chip 8) in
  check_true "controls are dim" (control_mean < 0.3 *. gene_mean)

let test_processed_dims_drop_controls () =
  let _, _, raw = make_timecourse 1108 in
  let processed = Microarray.Timecourse.process raw in
  Alcotest.(check (pair int int)) "controls dropped" (3, 9)
    (Mat.dims processed.Microarray.Timecourse.estimates)

let test_processing_recovers_shapes () =
  let _, true_signals, raw = make_timecourse 1105 in
  let processed = Microarray.Timecourse.process raw in
  (* Per-gene shape (up to scale) should correlate strongly with truth. *)
  for g = 0 to 1 do
    let truth = Mat.row true_signals g in
    let estimate = Mat.row processed.Microarray.Timecourse.estimates g in
    check_true
      (Printf.sprintf "gene %d shape recovered" g)
      (Stats.correlation truth estimate > 0.9)
  done

let test_processing_sigmas_positive () =
  let _, _, raw = make_timecourse 1106 in
  let processed = Microarray.Timecourse.process raw in
  Array.iter (fun s -> check_true "positive sigma" (s > 0.0))
    processed.Microarray.Timecourse.sigmas.Mat.data

let test_gene_measurements_accessor () =
  let _, _, raw = make_timecourse 1107 in
  let processed = Microarray.Timecourse.process raw in
  let g, s = Microarray.Timecourse.gene_measurements processed ~gene:1 in
  Alcotest.(check int) "g length" 9 (Array.length g);
  Alcotest.(check int) "sigma length" 9 (Array.length s);
  check_vec "matches matrix row" (Mat.row processed.Microarray.Timecourse.estimates 1) g

let test_deterministic () =
  let _, _, raw_a = make_timecourse 7 in
  let _, _, raw_b = make_timecourse 7 in
  check_true "same raw data"
    (mat_approx_equal ~tol:0.0 raw_a.Microarray.Timecourse.replicates.(0)
       raw_b.Microarray.Timecourse.replicates.(0))

let tests =
  [
    ( "microarray",
      [
        case "probe noiseless response" test_probe_noiseless;
        case "probe noise unbiased" test_probe_noise_unbiased;
        case "probe draw distribution" test_probe_draw_distribution;
        case "background correction" test_background_correct;
        case "median scaling" test_median_scale_aligns;
        case "quantile normalization" test_quantile_normalization;
        case "log2 transform" test_log2;
        case "timecourse shapes" test_timecourse_shapes;
        case "processing drops controls" test_processed_dims_drop_controls;
        case "processing recovers shapes" test_processing_recovers_shapes;
        case "sigmas positive" test_processing_sigmas_positive;
        case "gene accessor" test_gene_measurements_accessor;
        case "deterministic" test_deterministic;
      ] );
  ]
