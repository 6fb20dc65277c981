open Numerics
open Testutil

let random_matrix rng n = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)

let random_spd rng n =
  let a = random_matrix rng n in
  Mat.add (Mat.gram a) (Mat.scale (0.1 *. float_of_int n) (Mat.identity n))

let test_solve_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.solve a [| 5.0; 10.0 |] in
  check_vec ~tol:1e-12 "2x2 solve" [| 1.0; 3.0 |] x

let test_solve_roundtrip () =
  let rng = Rng.create 101 in
  for n = 1 to 8 do
    let a = random_matrix rng n in
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let b = Mat.mv a x_true in
    let x = Linalg.solve a b in
    check_vec ~tol:1e-8 (Printf.sprintf "roundtrip n=%d" n) x_true x
  done

let test_solve_permuted () =
  (* Forces pivoting: zero on the initial diagonal. *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_vec ~tol:1e-12 "pivot solve" [| 2.0; 1.0 |] (Linalg.solve a [| 1.0; 2.0 |])

let test_singular_raises () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular matrix" (Linalg.Singular "lu_factor: zero pivot") (fun () ->
      ignore (Linalg.solve a [| 1.0; 1.0 |]))

let test_inverse () =
  let rng = Rng.create 103 in
  let a = random_matrix rng 5 in
  let inv = Linalg.inverse a in
  check_true "A * inv(A) = I" (Mat.approx_equal ~tol:1e-8 (Mat.identity 5) (Mat.matmul a inv))

let test_det () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_close ~tol:1e-12 "det 2x2" (-2.0) (Linalg.det a);
  check_close ~tol:1e-12 "det identity" 1.0 (Linalg.det (Mat.identity 4));
  let singular = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_close "det singular" 0.0 (Linalg.det singular)

let test_det_product () =
  let rng = Rng.create 107 in
  let a = random_matrix rng 4 and b = random_matrix rng 4 in
  check_rel ~tol:1e-9 "det(AB) = det(A)det(B)" (Linalg.det a *. Linalg.det b)
    (Linalg.det (Mat.matmul a b))

let test_cholesky () =
  let rng = Rng.create 109 in
  let a = random_spd rng 6 in
  let x_true = Array.init 6 (fun i -> Float.cos (float_of_int i)) in
  let b = Mat.mv a x_true in
  let factor = Linalg.cholesky_factor a in
  check_vec ~tol:1e-8 "cholesky solve" x_true (Linalg.cholesky_solve factor b)

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "indefinite rejected"
    (Linalg.Singular "cholesky_factor: non-positive pivot") (fun () ->
      ignore (Linalg.cholesky_factor a))

let test_solve_spd_fallback () =
  (* solve_spd falls back to LU for indefinite symmetric systems. *)
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let x_true = [| 1.0; -1.0 |] in
  let b = Mat.mv a x_true in
  check_vec ~tol:1e-10 "solve_spd fallback" x_true (Linalg.solve_spd a b)

let test_qr_lstsq_exact () =
  (* Square full-rank: least squares equals exact solve. *)
  let rng = Rng.create 113 in
  let a = random_matrix rng 5 in
  let x_true = Array.init 5 (fun i -> float_of_int i -. 2.0) in
  let b = Mat.mv a x_true in
  check_vec ~tol:1e-8 "square lstsq" x_true (Linalg.qr_lstsq a b)

let test_qr_lstsq_overdetermined () =
  (* Fit a line to noisy points; compare with the normal-equation solution. *)
  let xs = Vec.linspace 0.0 1.0 20 in
  let a = Mat.init 20 2 (fun i j -> if j = 0 then 1.0 else xs.(i)) in
  let b = Array.map (fun x -> 2.0 +. (3.0 *. x)) xs in
  check_vec ~tol:1e-10 "exact line fit" [| 2.0; 3.0 |] (Linalg.qr_lstsq a b);
  (* Residual of the least-squares solution is orthogonal to the columns. *)
  let b_noisy = Array.mapi (fun i v -> v +. (0.1 *. Float.sin (float_of_int i))) b in
  let x = Linalg.qr_lstsq a b_noisy in
  let r = Vec.sub b_noisy (Mat.mv a x) in
  check_close ~tol:1e-10 "residual orthogonal col0" 0.0 (Vec.dot r (Mat.col a 0));
  check_close ~tol:1e-10 "residual orthogonal col1" 0.0 (Vec.dot r (Mat.col a 1))

let test_jacobi_eigen_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let values, vectors = Linalg.jacobi_eigen a in
  check_close ~tol:1e-10 "eigenvalue 3" 3.0 values.(0);
  check_close ~tol:1e-10 "eigenvalue 1" 1.0 values.(1);
  (* Eigenvector property: A v = lambda v. *)
  for k = 0 to 1 do
    let v = Mat.col vectors k in
    let av = Mat.mv a v in
    check_vec ~tol:1e-9 "eigenvector equation" (Vec.scale values.(k) v) av
  done

let test_jacobi_eigen_reconstruction () =
  let rng = Rng.create 127 in
  let a = random_spd rng 6 in
  let values, vectors = Linalg.jacobi_eigen a in
  (* Reconstruct V diag(values) Vt. *)
  let reconstructed = Mat.matmul vectors (Mat.matmul (Mat.diag values) (Mat.transpose vectors)) in
  check_true "eigen reconstruction" (Mat.approx_equal ~tol:1e-8 a reconstructed);
  (* Orthogonality of eigenvectors. *)
  check_true "orthonormal vectors"
    (Mat.approx_equal ~tol:1e-9 (Mat.identity 6) (Mat.matmul (Mat.transpose vectors) vectors))

let test_condition_spd () =
  let a = Mat.diag [| 100.0; 1.0 |] in
  check_rel ~tol:1e-9 "condition of diag" 100.0 (condition_spd a);
  check_rel ~tol:1e-9 "condition of identity" 1.0 (condition_spd (Mat.identity 3))

let test_solve_many () =
  let rng = Rng.create 131 in
  let a = random_matrix rng 4 in
  let x = Mat.init 4 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let b = Mat.matmul a x in
  check_true "solve_many" (Mat.approx_equal ~tol:1e-8 x (Linalg.solve_many a b))

let prop_solve_residual =
  qcheck ~count:50 "LU solve residual" (QCheck2.Gen.int_range 1 8) (fun n ->
      let rng = Rng.create (n + 997) in
      let a = random_matrix rng n in
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
      match Linalg.solve a b with
      | x -> Vec.norm_inf (Vec.sub (Mat.mv a x) b) < 1e-6
      | exception Linalg.Singular _ -> true)

(* Z from variable elimination: C·Z = 0 to rounding, and the rows of Z at
   the free (non-pivot) columns form the identity. *)
let test_null_space () =
  let rng = Rng.create 733 in
  List.iter
    (fun (k, n) ->
      (* Rows of very different scales, as the conservation and
         rate-continuity rows are. *)
      let c =
        Mat.init k n (fun i _ -> (10.0 ** float_of_int i) *. Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let z = Linalg.null_space c in
      Alcotest.(check (pair int int)) "dims" (n, n - k) (Mat.dims z);
      check_true
        (Printf.sprintf "CZ = 0 (%dx%d)" k n)
        (Mat.max_abs (Mat.matmul c z) <= 1e-14 *. Mat.max_abs c *. float_of_int n);
      let unit_rows =
        List.filter
          (fun p ->
            let row = Mat.row z p in
            Array.for_all (fun v -> Float.equal v 0.0 || Float.equal v 1.0) row
            && Float.equal (Array.fold_left ( +. ) 0.0 row) 1.0)
          (List.init n Fun.id)
      in
      Alcotest.(check int) "one unit row per free column" (n - k) (List.length unit_rows);
      let block = Mat.of_rows (Array.of_list (List.map (Mat.row z) unit_rows)) in
      check_true "identity block at the free columns"
        (Mat.approx_equal ~tol:0.0 (Mat.identity (n - k)) block))
    [ (1, 2); (2, 12); (3, 7); (2, 3) ]

let test_null_space_dependent_rows () =
  let raises name c =
    match Linalg.null_space c with
    | _ -> Alcotest.failf "%s: expected Singular" name
    | exception Linalg.Singular _ -> ()
  in
  raises "proportional rows" (Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| -2.0; -4.0; -6.0 |] |]);
  raises "zero row" (Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 0.0; 0.0; 0.0 |] |]);
  raises "more rows than columns" (Mat.of_rows [| [| 1.0 |]; [| 2.0 |] |])

let tests =
  [
    ( "linalg",
      [
        case "solve known 2x2" test_solve_known;
        case "solve roundtrip" test_solve_roundtrip;
        case "solve with pivoting" test_solve_permuted;
        case "singular raises" test_singular_raises;
        case "inverse" test_inverse;
        case "determinant" test_det;
        case "determinant multiplicativity" test_det_product;
        case "cholesky solve" test_cholesky;
        case "cholesky rejects indefinite" test_cholesky_rejects_indefinite;
        case "solve_spd fallback" test_solve_spd_fallback;
        case "qr lstsq square" test_qr_lstsq_exact;
        case "qr lstsq overdetermined" test_qr_lstsq_overdetermined;
        case "jacobi eigen 2x2" test_jacobi_eigen_known;
        case "jacobi eigen reconstruction" test_jacobi_eigen_reconstruction;
        case "condition number" test_condition_spd;
        case "solve many" test_solve_many;
        case "null space by elimination" test_null_space;
        case "null space rejects dependent rows" test_null_space_dependent_rows;
        prop_solve_residual;
      ] );
  ]
