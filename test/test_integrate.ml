open Numerics
open Testutil

(* n-point Gauss–Legendre quadrature on [a, b] from the library's nodes:
   the mapped rule the node tests check. *)
let gauss_legendre f ~a ~b ~n =
  let nodes, weights = Integrate.gauss_legendre_nodes n in
  let half = (b -. a) /. 2.0 and mid = (a +. b) /. 2.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) *. f (mid +. (half *. nodes.(i))))
  done;
  !acc *. half

let test_trapezoid_sampled () =
  let x = [| 0.0; 0.5; 2.0 |] in
  let y = [| 0.0; 1.0; 4.0 |] in
  (* 0.5*(0+1)/2 + 1.5*(1+4)/2 = 0.25 + 3.75 *)
  check_close ~tol:1e-12 "non-uniform samples" 4.0
    (Vec.dot (Integrate.trapezoid_weights x) y)

let test_trapezoid_weights () =
  let w = Integrate.trapezoid_weights [| 0.0; 0.5; 2.0 |] in
  check_close ~tol:1e-12 "weights sum to length" 2.0 (Vec.sum w)

let test_simpson_cubic_exact () =
  (* Simpson integrates cubics exactly. *)
  let f x = (x *. x *. x) -. (2.0 *. x *. x) +. 5.0 in
  let exact = 0.25 -. (2.0 /. 3.0) +. 5.0 in
  check_close ~tol:1e-12 "cubic exact" exact (Integrate.simpson f ~a:0.0 ~b:1.0 ~n:2);
  (* Odd n is rounded up rather than mis-integrating. *)
  check_close ~tol:1e-12 "odd n handled" exact (Integrate.simpson f ~a:0.0 ~b:1.0 ~n:3)

let test_simpson_convergence () =
  let f x = exp x in
  let exact = Float.exp 1.0 -. 1.0 in
  let err n = Float.abs (Integrate.simpson f ~a:0.0 ~b:1.0 ~n -. exact) in
  check_true "fourth-order convergence" (err 32 < err 16 /. 12.0)

let test_gauss_legendre_nodes () =
  let nodes, weights = Integrate.gauss_legendre_nodes 5 in
  check_close ~tol:1e-12 "weights sum to 2" 2.0 (Vec.sum weights);
  check_close ~tol:1e-12 "symmetric nodes" 0.0 (nodes.(0) +. nodes.(4));
  check_close ~tol:1e-12 "middle node zero" 0.0 nodes.(2);
  (* Known 2-point nodes +-1/sqrt(3). *)
  let nodes2, _ = Integrate.gauss_legendre_nodes 2 in
  check_close ~tol:1e-12 "2-point node" (1.0 /. sqrt 3.0) nodes2.(1)

let test_gauss_legendre_polynomial_exactness () =
  (* n-point GL is exact up to degree 2n-1. *)
  for n = 1 to 8 do
    let degree = (2 * n) - 1 in
    let f x = x ** float_of_int degree +. (x ** float_of_int (degree - 1)) in
    let exact =
      (* int_0^1 of x^d + x^(d-1) *)
      (1.0 /. float_of_int (degree + 1)) +. (1.0 /. float_of_int degree)
    in
    check_rel ~tol:1e-12
      (Printf.sprintf "degree %d with %d points" degree n)
      exact
      (gauss_legendre f ~a:0.0 ~b:1.0 ~n)
  done

let test_gauss_legendre_interval_map () =
  check_rel ~tol:1e-12 "mapped interval" (Float.sin 3.0 -. Float.sin 1.0)
    (gauss_legendre Float.cos ~a:1.0 ~b:3.0 ~n:12)

let prop_trapezoid_additivity =
  qcheck ~count:50 "interval additivity" (QCheck2.Gen.float_range 0.1 0.9) (fun mid ->
      let f x = (x *. x) +. 1.0 in
      let whole = Integrate.simpson f ~a:0.0 ~b:1.0 ~n:400 in
      let left = Integrate.simpson f ~a:0.0 ~b:mid ~n:400 in
      let right = Integrate.simpson f ~a:mid ~b:1.0 ~n:400 in
      Float.abs (whole -. (left +. right)) < 1e-9)

let tests =
  [
    ( "integrate",
      [
        case "trapezoid sampled" test_trapezoid_sampled;
        case "trapezoid weights" test_trapezoid_weights;
        case "simpson cubic exact" test_simpson_cubic_exact;
        case "simpson convergence order" test_simpson_convergence;
        case "gauss-legendre nodes" test_gauss_legendre_nodes;
        case "gauss-legendre exactness" test_gauss_legendre_polynomial_exactness;
        case "gauss-legendre interval map" test_gauss_legendre_interval_map;
        prop_trapezoid_additivity;
      ] );
  ]
