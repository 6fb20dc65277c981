open Numerics
open Testutil

let test_kfold_partition () =
  let rng = Rng.create 202 in
  let folds = Optimize.Cross_validation.kfold_indices rng ~n:23 ~k:5 in
  Alcotest.(check int) "five folds" 5 (Array.length folds);
  (* Disjoint cover of 0..22. *)
  let seen = Array.make 23 0 in
  Array.iter (fun fold -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) fold) folds;
  Array.iteri (fun i c -> Alcotest.(check int) (Printf.sprintf "index %d covered once" i) 1 c) seen;
  (* Balanced sizes: 23 = 5+5+5+4+4 in some order. *)
  Array.iter
    (fun fold ->
      let len = Array.length fold in
      check_true "balanced folds" (len = 4 || len = 5))
    folds

let test_kfold_deterministic_given_seed () =
  let a = Optimize.Cross_validation.kfold_indices (Rng.create 7) ~n:10 ~k:3 in
  let b = Optimize.Cross_validation.kfold_indices (Rng.create 7) ~n:10 ~k:3 in
  Array.iteri (fun i fold -> Alcotest.(check (array int)) "same folds" fold b.(i)) a

let test_log_grid () =
  let grid = Optimize.Cross_validation.log_lambda_grid ~lo:(-3.0) ~hi:1.0 ~count:5 in
  check_vec ~tol:1e-12 "log spaced" [| 1e-3; 1e-2; 1e-1; 1.0; 10.0 |] grid;
  let single = Optimize.Cross_validation.log_lambda_grid ~lo:(-2.0) ~hi:5.0 ~count:1 in
  check_close ~tol:1e-12 "single point grid" 1e-2 single.(0)

let test_kfold_score_simple_model () =
  (* Mean-of-train predicting the held-out mean: identical data gives zero error. *)
  let rng = Rng.create 33 in
  let data = Array.make 12 5.0 in
  let score =
    kfold_score ~rng ~k:4 ~n:12
      ~fit_on:(fun ~train _lambda ->
        Vec.mean (Array.map (fun i -> data.(i)) train))
      ~predict_error:(fun model ~test ->
        let errs = Array.map (fun i -> (data.(i) -. model) ** 2.0) test in
        Vec.mean errs)
      0.0
  in
  check_close ~tol:1e-12 "zero error on constant data" 0.0 score

let test_kfold_score_penalizes_variance () =
  (* Heterogeneous data must produce positive CV error. *)
  let rng = Rng.create 35 in
  let data = Array.init 12 (fun i -> float_of_int i) in
  let score =
    kfold_score ~rng ~k:3 ~n:12
      ~fit_on:(fun ~train _ -> Vec.mean (Array.map (fun i -> data.(i)) train))
      ~predict_error:(fun model ~test ->
        Vec.mean (Array.map (fun i -> (data.(i) -. model) ** 2.0) test))
      0.0
  in
  check_true "positive error" (score > 1.0)

let tests =
  [
    ( "cross-validation",
      [
        case "kfold partition" test_kfold_partition;
        case "kfold deterministic" test_kfold_deterministic_given_seed;
        case "log lambda grid" test_log_grid;
        case "kfold score constant data" test_kfold_score_simple_model;
        case "kfold score penalizes variance" test_kfold_score_penalizes_variance;
      ] );
  ]
