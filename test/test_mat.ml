open Numerics
open Testutil

let m22 a b c d = Mat.of_rows [| [| a; b |]; [| c; d |] |]

let check_mat ?(tol = 1e-9) msg expected actual =
  if not (mat_approx_equal ~tol expected actual) then
    Alcotest.failf "%s: matrices differ:@ expected@ %a got@ %a" msg pp_mat expected pp_mat actual

let test_constructors () =
  let i3 = Mat.identity 3 in
  check_close "identity diag" 1.0 (Mat.get i3 1 1);
  check_close "identity off-diag" 0.0 (Mat.get i3 0 2);
  let init = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  check_close "init layout" 12.0 (Mat.get init 1 2)

let test_rows_cols () =
  let m = Mat.init 3 2 (fun i j -> float_of_int ((10 * i) + j)) in
  check_vec "row" [| 10.0; 11.0 |] (Mat.row m 1);
  check_vec "col" [| 1.0; 11.0; 21.0 |] (Mat.col m 1);
  Mat.set_row m 0 [| 5.0; 6.0 |];
  check_vec "set_row" [| 5.0; 6.0 |] (Mat.row m 0);
  Mat.set_col m 0 [| 7.0; 8.0; 9.0 |];
  check_vec "set_col" [| 7.0; 8.0; 9.0 |] (Mat.col m 0)

let test_transpose_involution () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 7) + j)) in
  check_mat "transpose twice" m (Mat.transpose (Mat.transpose m))

let test_matmul () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let b = m22 5.0 6.0 7.0 8.0 in
  check_mat "matmul known" (m22 19.0 22.0 43.0 50.0) (Mat.matmul a b);
  check_mat "identity neutral" a (Mat.matmul a (Mat.identity 2));
  (* Associativity on small random matrices. *)
  let rng = Rng.create 9 in
  let rand r c = Mat.init r c (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let x = rand 3 4 and y = rand 4 2 and z = rand 2 5 in
  check_mat ~tol:1e-9 "associativity" (Mat.matmul (Mat.matmul x y) z) (Mat.matmul x (Mat.matmul y z))

let test_mv_tmv () =
  let a = Mat.init 3 2 (fun i j -> float_of_int (i + j)) in
  let x = [| 1.0; 2.0 |] in
  check_vec "mv" [| 2.0; 5.0; 8.0 |] (Mat.mv a x);
  let y = [| 1.0; 1.0; 1.0 |] in
  check_vec "tmv = transpose mv" (Mat.mv (Mat.transpose a) y) (Mat.tmv a y)

let test_gram () =
  let rng = Rng.create 13 in
  let a = Mat.init 5 3 (fun _ _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
  check_mat ~tol:1e-12 "gram = AtA" (Mat.matmul (Mat.transpose a) a) (Mat.gram a);
  check_true "gram symmetric" (is_symmetric (Mat.gram a))

let test_trace_frobenius () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_close "frobenius" (sqrt 30.0) (Mat.frobenius a);
  check_close "max_abs" 4.0 (Mat.max_abs a)

let test_add_sub_scale_map () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_mat "add" (Mat.scale 2.0 a) (Mat.add a a);
  check_mat "sub" (Mat.zeros 2 2) (Mat.sub a a);
  check_mat "map" (m22 1.0 4.0 9.0 16.0) (Mat.map (fun x -> x *. x) a)

let prop_transpose_matmul =
  qcheck ~count:50 "(AB)t = Bt At"
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 5))
    (fun (r, c) ->
      let rng = Rng.create ((r * 100) + c) in
      let a = Mat.init r c (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let b = Mat.init c r (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      mat_approx_equal ~tol:1e-9
        (Mat.transpose (Mat.matmul a b))
        (Mat.matmul (Mat.transpose b) (Mat.transpose a)))

let prop_mv_linearity =
  qcheck ~count:50 "A(x+y) = Ax + Ay" (QCheck2.Gen.int_range 1 6) (fun n ->
      let rng = Rng.create (n * 31) in
      let a = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let x = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let y = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      vec_approx_equal ~tol:1e-9 (Mat.mv a (Vec.add x y)) (Vec.add (Mat.mv a x) (Mat.mv a y)))

let tests =
  [
    ( "mat",
      [
        case "constructors" test_constructors;
        case "rows and cols" test_rows_cols;
        case "transpose involution" test_transpose_involution;
        case "matmul" test_matmul;
        case "mv and tmv" test_mv_tmv;
        case "gram" test_gram;
        case "frobenius max_abs" test_trace_frobenius;
        case "add sub scale map" test_add_sub_scale_map;
        prop_transpose_matmul;
        prop_mv_linearity;
      ] );
  ]
