open Numerics
open Testutil

let test_bracket () =
  let x = [| 0.0; 1.0; 2.0; 4.0 |] in
  Alcotest.(check int) "interior" 1 (Interp.bracket x 1.5);
  Alcotest.(check int) "at knot" 2 (Interp.bracket x 2.0);
  Alcotest.(check int) "below range" 0 (Interp.bracket x (-1.0));
  Alcotest.(check int) "above range" 2 (Interp.bracket x 10.0);
  Alcotest.(check int) "at left edge" 0 (Interp.bracket x 0.0)

let test_linear () =
  let x = [| 0.0; 1.0; 3.0 |] in
  let y = [| 0.0; 2.0; 6.0 |] in
  check_close ~tol:1e-12 "midpoint" 1.0 (Interp.linear_clamped ~x ~y 0.5);
  check_close ~tol:1e-12 "second segment" 4.0 (Interp.linear_clamped ~x ~y 2.0);
  check_close ~tol:1e-12 "exact at knots" 2.0 (Interp.linear_clamped ~x ~y 1.0)

let test_linear_clamped () =
  let x = [| 0.0; 1.0 |] and y = [| 5.0; 7.0 |] in
  check_close "clamp left" 5.0 (Interp.linear_clamped ~x ~y (-3.0));
  check_close "clamp right" 7.0 (Interp.linear_clamped ~x ~y 9.0);
  check_close ~tol:1e-12 "interior unchanged" 6.0 (Interp.linear_clamped ~x ~y 0.5)

let test_pchip_through_points () =
  let x = [| 0.0; 0.3; 0.7; 1.0 |] in
  let y = [| 1.0; 2.0; 0.5; 3.0 |] in
  let p = Interp.pchip_build ~x ~y in
  Array.iteri
    (fun i xi -> check_close ~tol:1e-12 "interpolates knots" y.(i) (Interp.pchip_eval p xi))
    x

let test_pchip_monotone_no_overshoot () =
  (* Monotone data must give a monotone interpolant (the Fritsch-Carlson
     property); a step-like dataset is the classic overshoot trap. *)
  let x = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let y = [| 0.0; 0.0; 1.0; 1.0; 1.0 |] in
  let p = Interp.pchip_build ~x ~y in
  let prev = ref (Interp.pchip_eval p 0.0) in
  for i = 1 to 400 do
    let v = Interp.pchip_eval p (4.0 *. float_of_int i /. 400.0) in
    check_true "monotone" (v >= !prev -. 1e-12);
    check_true "within data range" (v >= -1e-12 && v <= 1.0 +. 1e-12);
    prev := v
  done

let test_pchip_clamps_outside () =
  let x = [| 0.0; 1.0 |] and y = [| 2.0; 5.0 |] in
  let p = Interp.pchip_build ~x ~y in
  check_close "clamped left" 2.0 (Interp.pchip_eval p (-1.0));
  check_close "clamped right" 5.0 (Interp.pchip_eval p 2.0)

let test_pchip_two_points_is_linear () =
  let p = Interp.pchip_build ~x:[| 0.0; 2.0 |] ~y:[| 0.0; 4.0 |] in
  check_close ~tol:1e-12 "two-point linear" 2.0 (Interp.pchip_eval p 1.0)

let prop_pchip_bounded_by_data =
  qcheck ~count:100 "pchip stays within local data range"
    QCheck2.Gen.(array_size (return 6) (float_bound_inclusive 10.0))
    (fun ys ->
      let xs = Array.init 6 float_of_int in
      let p = Interp.pchip_build ~x:xs ~y:ys in
      let lo = Vec.min ys -. 1e-9 and hi = Vec.max ys +. 1e-9 in
      let ok = ref true in
      for i = 0 to 100 do
        let v = Interp.pchip_eval p (5.0 *. float_of_int i /. 100.0) in
        if v < lo || v > hi then ok := false
      done;
      !ok)

let tests =
  [
    ( "interp",
      [
        case "bracket" test_bracket;
        case "linear interpolation" test_linear;
        case "linear clamped" test_linear_clamped;
        case "pchip through points" test_pchip_through_points;
        case "pchip monotone, no overshoot" test_pchip_monotone_no_overshoot;
        case "pchip clamps outside" test_pchip_clamps_outside;
        case "pchip two points" test_pchip_two_points_is_linear;
        prop_pchip_bounded_by_data;
      ] );
  ]
