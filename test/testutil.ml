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

(* ---------------- statistics oracles ---------------- *)

(* The penalized weighted least-squares fit by direct Cholesky solve, and
   its effective degrees of freedom as Σ_m w_m a_mᵀ (AᵀWA + λP)⁻¹ a_m, one
   solve per measurement row: the independent edf reference for
   [Deconv.Quality.system] and the direct reference for the spectral λ
   path. *)
module Ridge_oracle = struct
  open Numerics

  type fit = {
    x : Vec.t;
    fitted : Vec.t;  (** A x *)
    residuals : Vec.t;  (** b − A x *)
    rss : float;  (** weighted residual sum of squares *)
    edf : float;  (** effective degrees of freedom, tr(hat matrix) *)
    gcv : float;  (** generalized cross-validation score *)
  }

  (* Weights default to 1; requires [lambda >= 0] and a positive-definite
     normal matrix (raises [Linalg.Singular] otherwise). *)
  let solve ~a ~b ?weights ~penalty ~lambda () =
    assert (lambda >= 0.0);
    let m, _ = Mat.dims a in
    assert (Array.length b = m);
    let weights = match weights with Some w -> w | None -> Vec.ones m in
    let factor =
      Linalg.cholesky_factor (Optimize.Ridge.normal_matrix ~a ~weights ~penalty ~lambda)
    in
    let x = Linalg.cholesky_solve factor (Mat.tmv a (Vec.mul weights b)) in
    let fitted = Mat.mv a x in
    let residuals = Vec.sub b fitted in
    let rss = ref 0.0 and edf = ref 0.0 in
    for r = 0 to m - 1 do
      rss := !rss +. (weights.(r) *. residuals.(r) *. residuals.(r));
      let row = Mat.row a r in
      edf := !edf +. (weights.(r) *. Vec.dot row (Linalg.cholesky_solve factor row))
    done;
    let mf = float_of_int m in
    let denom = mf -. !edf in
    let gcv = if denom <= 0.0 then Float.infinity else mf *. !rss /. (denom *. denom) in
    { x; fitted; residuals; rss = !rss; edf = !edf; gcv }
end

(* Spectral condition number κ₂ = λ_max/λ_min of a symmetric matrix by
   Jacobi eigendecomposition, infinite when λ_min <= 0: the reference the
   1-norm κ of [Deconv.Quality.system] is bounded against
   (κ₂ <= κ₁ <= n·κ₂). *)
let condition_spd a =
  let values, _ = Numerics.Linalg.jacobi_eigen a in
  let n = Array.length values in
  if n = 0 then 1.0
  else begin
    let vmax = values.(0) and vmin = values.(n - 1) in
    if vmin <= 0.0 then Float.infinity else vmax /. vmin
  end
