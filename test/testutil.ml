(* Shared helpers for the test suites. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_rel ?(tol = 1e-6) msg expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected actual tol

let check_true msg condition = Alcotest.(check bool) msg true condition

let check_vec ?(tol = 1e-9) msg expected actual =
  if not (Numerics.Vec.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: vectors differ (tol %g):@ expected %s@ got %s" msg tol
      (Format.asprintf "%a" Numerics.Vec.pp expected)
      (Format.asprintf "%a" Numerics.Vec.pp actual)

let case name f = Alcotest.test_case name `Quick f

(* Reference k-fold score, the oracle for [Deconv.Lambda.kfold]: the mean
   held-out error of [lambda] across the folds of
   [Optimize.Cross_validation.kfold_indices]. [fit_on ~train lambda] trains
   a model on the index subset; [predict_error model ~test] returns its
   mean squared error on the held-out subset. *)
let kfold_score ~rng ~k ~n ~fit_on ~predict_error lambda =
  let folds = Optimize.Cross_validation.kfold_indices rng ~n ~k in
  let total = ref 0.0 in
  Array.iter
    (fun test ->
      let in_test = Array.make n false in
      Array.iter (fun i -> in_test.(i) <- true) test;
      let train =
        Array.of_list (List.filter (fun i -> not in_test.(i)) (List.init n (fun i -> i)))
      in
      let model = fit_on ~train lambda in
      total := !total +. predict_error model ~test)
    folds;
  !total /. float_of_int k

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Finite-difference derivative check helpers. *)
let fd_deriv f x h = (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let fd_deriv2 f x h = (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)
