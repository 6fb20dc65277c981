open Numerics
open Testutil

let sample = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]

let test_mean_variance () =
  check_close "mean" 5.0 (Stats.mean sample);
  check_close ~tol:1e-12 "variance (n-1)" (32.0 /. 7.0) (Float.pow (Stats.std sample) 2.0);
  check_close ~tol:1e-12 "std" (sqrt (32.0 /. 7.0)) (Stats.std sample);
  check_close "singleton variance" 0.0 (Stats.std [| 3.0 |])

let test_cv () =
  check_close ~tol:1e-12 "cv" (sqrt (32.0 /. 7.0) /. 5.0) (Stats.cv sample);
  check_true "cv of zero-mean" (Stats.cv [| -1.0; 1.0 |] = Float.infinity)

let test_median_quantile () =
  check_close "median even" 4.5 (Stats.median sample);
  check_close "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_close "q0 = min" 2.0 (Stats.quantile sample 0.0);
  check_close "q1 = max" 9.0 (Stats.quantile sample 1.0);
  check_close ~tol:1e-12 "interpolated quantile" 4.0 (Stats.quantile sample 0.25)

let test_correlation () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close ~tol:1e-12 "perfect correlation" 1.0 (Stats.correlation x (Vec.scale 2.0 x));
  check_close ~tol:1e-12 "perfect anticorrelation" (-1.0) (Stats.correlation x (Vec.neg x));
  check_close "constant input" 0.0 (Stats.correlation x [| 5.0; 5.0; 5.0; 5.0 |])

let test_covariance () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 2.0; 4.0; 6.0 |] in
  check_close ~tol:1e-12 "covariance" 2.0 (Stats.correlation x y *. Stats.std x *. Stats.std y)

let test_error_metrics () =
  let truth = [| 1.0; 2.0; 3.0 |] in
  let est = [| 1.0; 2.5; 2.0 |] in
  check_close ~tol:1e-12 "rmse" (sqrt (1.25 /. 3.0)) (Stats.rmse truth est);
  check_close ~tol:1e-12 "mae" 0.5 (Stats.mae truth est);
  check_close ~tol:1e-12 "max abs" 1.0 (Stats.max_abs_error truth est);
  check_close ~tol:1e-12 "nrmse" (sqrt (1.25 /. 3.0) /. 2.0) (Stats.nrmse truth est);
  check_close "identical arrays" 0.0 (Stats.rmse truth truth)

let test_histogram_mass () =
  let rng = Rng.create 71 in
  let xs = Array.init 10_000 (fun _ -> Rng.float rng) in
  let h = Stats.histogram ~bins:20 ~lo:0.0 ~hi:1.0 xs in
  check_close "total mass" 10_000.0 (Vec.sum h.Stats.counts);
  Alcotest.(check int) "edge count" 21 (Array.length h.Stats.edges);
  (* Roughly uniform. *)
  Array.iter (fun c -> check_true "uniform bins" (c > 350.0 && c < 650.0)) h.Stats.counts

let test_histogram_weights () =
  let xs = [| 0.25; 0.75 |] in
  let h = Stats.histogram ~weights:[| 2.0; 5.0 |] ~bins:2 ~lo:0.0 ~hi:1.0 xs in
  check_vec "weighted counts" [| 2.0; 5.0 |] h.Stats.counts

let test_histogram_boundary () =
  (* A sample exactly at hi lands in the last bin, not dropped. *)
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:1.0 [| 1.0; 0.0 |] in
  check_close "value at hi kept" 1.0 h.Stats.counts.(3);
  check_close "value at lo kept" 1.0 h.Stats.counts.(0);
  (* Out-of-range values are dropped. *)
  let h2 = Stats.histogram ~bins:4 ~lo:0.0 ~hi:1.0 [| -0.5; 1.5 |] in
  check_close "out-of-range dropped" 0.0 (Vec.sum h2.Stats.counts)

let test_histogram_density () =
  let rng = Rng.create 73 in
  let xs = Array.init 5_000 (fun _ -> Rng.float rng) in
  let h = Stats.histogram ~bins:10 ~lo:0.0 ~hi:1.0 xs in
  let density = Stats.histogram_density h in
  (* Density integrates to 1 over the binned range. *)
  let integral = ref 0.0 in
  Array.iteri (fun i d -> integral := !integral +. (d *. (h.Stats.edges.(i + 1) -. h.Stats.edges.(i)))) density;
  check_close ~tol:1e-12 "density integral" 1.0 !integral

let prop_rmse_bounds =
  qcheck ~count:100 "mae <= rmse <= max_abs"
    QCheck2.Gen.(array_size (int_range 2 30) (float_bound_inclusive 10.0))
    (fun xs ->
      let ys = Array.map (fun x -> x +. 1.0) xs in
      let mae = Stats.mae xs ys and rmse = Stats.rmse xs ys and mx = Stats.max_abs_error xs ys in
      mae <= rmse +. 1e-9 && rmse <= mx +. 1e-9)

let prop_quantile_monotone =
  qcheck ~count:100 "quantiles are monotone"
    QCheck2.Gen.(array_size (int_range 2 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let q25 = Stats.quantile xs 0.25 and q75 = Stats.quantile xs 0.75 in
      q25 <= q75 +. 1e-9)

let tests =
  [
    ( "stats",
      [
        case "mean and variance" test_mean_variance;
        case "cv" test_cv;
        case "median and quantiles" test_median_quantile;
        case "correlation" test_correlation;
        case "covariance" test_covariance;
        case "error metrics" test_error_metrics;
        case "histogram mass" test_histogram_mass;
        case "histogram weights" test_histogram_weights;
        case "histogram boundaries" test_histogram_boundary;
        case "histogram density" test_histogram_density;
        prop_rmse_bounds;
        prop_quantile_monotone;
      ] );
  ]
