open Numerics
open Testutil

let test_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  check_vec "linspace 5" [| 0.0; 0.25; 0.5; 0.75; 1.0 |] v;
  let w = Vec.linspace 2.0 (-2.0) 3 in
  check_vec "descending linspace" [| 2.0; 0.0; -2.0 |] w

let test_arith () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  check_vec "add" [| 5.0; 7.0; 9.0 |] (Vec.add x y);
  check_vec "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub x y);
  check_vec "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 x);
  check_vec "mul" [| 4.0; 10.0; 18.0 |] (Vec.mul x y);
  check_vec "neg" [| -1.0; -2.0; -3.0 |] (Vec.neg x)

let test_axpy () =
  let x = [| 1.0; 2.0 |] in
  let y = [| 10.0; 20.0 |] in
  Vec.axpy 3.0 x y;
  check_vec "axpy in place" [| 13.0; 26.0 |] y

let test_dot_norm () =
  let x = [| 3.0; 4.0 |] in
  check_close "dot" 25.0 (Vec.dot x x);
  check_close "norm2" 5.0 (norm2 x);
  check_close "norm_inf" 4.0 (Vec.norm_inf x);
  check_close "sum" 7.0 (Vec.sum x);
  check_close "mean" 3.5 (Vec.mean x)

let test_extrema () =
  let x = [| 3.0; -1.0; 4.0; -1.5; 5.0 |] in
  check_close "min" (-1.5) (Vec.min x);
  check_close "max" 5.0 (Vec.max x);
  Alcotest.(check int) "argmin" 3 (Vec.argmin x);
  Alcotest.(check int) "argmax" 4 (Vec.argmax x)

let test_concat () =
  check_vec "concat" [| 1.0; 2.0; 3.0 |] (Vec.concat [ [| 1.0 |]; [| 2.0; 3.0 |] ])

let test_approx_equal () =
  check_true "approx equal" (vec_approx_equal ~tol:1e-6 [| 1.0 |] [| 1.0 +. 1e-8 |]);
  check_true "not approx equal" (not (vec_approx_equal ~tol:1e-9 [| 1.0 |] [| 1.1 |]));
  check_true "length mismatch" (not (vec_approx_equal [| 1.0 |] [| 1.0; 2.0 |]))

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 1 20) (float_bound_inclusive 100.0))

let prop_add_commutative =
  qcheck "vec add commutative" QCheck2.Gen.(pair float_array_gen float_array_gen) (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      vec_approx_equal (Vec.add x y) (Vec.add y x))

let prop_dot_cauchy_schwarz =
  qcheck "cauchy-schwarz" QCheck2.Gen.(pair float_array_gen float_array_gen) (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Float.abs (Vec.dot x y) <= (norm2 x *. norm2 y) +. 1e-6)

let prop_scale_linearity =
  qcheck "scale distributes over add" QCheck2.Gen.(pair float_array_gen (float_bound_inclusive 10.0))
    (fun (x, a) ->
      vec_approx_equal ~tol:1e-6 (Vec.scale a (Vec.add x x)) (Vec.add (Vec.scale a x) (Vec.scale a x)))

let prop_norm_triangle =
  qcheck "triangle inequality" QCheck2.Gen.(pair float_array_gen float_array_gen) (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      norm2 (Vec.add x y) <= norm2 x +. norm2 y +. 1e-6)

let tests =
  [
    ( "vec",
      [
        case "linspace" test_linspace;
        case "arithmetic" test_arith;
        case "axpy" test_axpy;
        case "dot and norms" test_dot_norm;
        case "extrema" test_extrema;
        case "concat" test_concat;
        case "approx equal" test_approx_equal;
        prop_add_commutative;
        prop_dot_cauchy_schwarz;
        prop_scale_linearity;
        prop_norm_triangle;
      ] );
  ]
