open Testutil

let phi_ssts = [ 0.1; 0.15; 0.25; 0.4 ]

(* The two volume models through [Volume.eval]. *)
let linear ~v0 = Cellpop.Volume.eval { Cellpop.Params.plos_2009 with v0 }
let smooth ~v0 = Cellpop.Volume.eval { Cellpop.Params.paper_2011 with v0 }

(* Closed-form derivatives of both models: the oracles for the
   rate-continuity conditions, tied to [smooth] by the finite-difference
   test below. The smooth model's cubic is pinned by v(0) = 0.4·v0,
   v(φ_sst) = 0.6·v0 and v'(0) = v'(φ_sst) = β = 0.4/(1 − φ_sst). *)
let beta ~phi_sst = 0.4 /. (1.0 -. phi_sst)

let linear_deriv ~v0 ~phi_sst phi =
  if phi < phi_sst then v0 *. 0.2 /. phi_sst else v0 *. beta ~phi_sst

let smooth_deriv ~v0 ~phi_sst phi =
  let b = beta ~phi_sst and s = phi_sst in
  let delta = 0.2 -. (b *. s) in
  let c2 = 3.0 *. delta /. (s *. s) and c3 = -2.0 *. delta /. (s *. s *. s) in
  if phi < phi_sst then v0 *. (b +. (2.0 *. c2 *. phi) +. (3.0 *. c3 *. phi *. phi))
  else v0 *. b

(* Paper eqs. 6-8: the division-partition values hold for both models. *)
let test_partition_values () =
  List.iter
    (fun phi_sst ->
      List.iter
        (fun (name, v) ->
          check_close ~tol:1e-12 (name ^ " v(0) = 0.4 V0") 0.4 (v 0.0);
          check_close ~tol:1e-9 (name ^ " v(phi_sst) = 0.6 V0") 0.6 (v phi_sst);
          check_close ~tol:1e-12 (name ^ " v(1) = V0") 1.0 (v 1.0))
        [
          ("linear", linear ~v0:1.0 ~phi_sst);
          ("smooth", smooth ~v0:1.0 ~phi_sst);
        ])
    phi_ssts

(* Paper eqs. 9-10: rate continuity holds for the smooth model only. *)
let test_smooth_rate_continuity () =
  List.iter
    (fun phi_sst ->
      let d = smooth_deriv ~v0:1.0 ~phi_sst in
      let expected = 0.4 /. (1.0 -. phi_sst) in
      check_close ~tol:1e-9 "v'(0) = v'(1)" expected (d 0.0);
      check_close ~tol:1e-6 "v'(phi_sst) = v'(1)" expected (d (phi_sst +. 1e-9));
      check_close ~tol:1e-9 "v'(1)" expected (d 1.0))
    phi_ssts

let test_linear_model_violates_rate_continuity () =
  (* The 2009 model has a slope discontinuity at phi_sst when
     0.2/phi_sst != 0.4/(1-phi_sst), i.e. whenever phi_sst != 1/3. *)
  let phi_sst = 0.15 in
  let d = linear_deriv ~v0:1.0 ~phi_sst in
  check_true "slope jump at transition" (Float.abs (d 0.1 -. d 0.2) > 0.5)

let test_smooth_derivative_fd () =
  List.iter
    (fun phi_sst ->
      let v = smooth ~v0:1.0 ~phi_sst in
      let d = smooth_deriv ~v0:1.0 ~phi_sst in
      List.iter
        (fun phi ->
          if Float.abs (phi -. phi_sst) > 1e-3 then
            check_close ~tol:1e-5 "smooth deriv fd" (fd_deriv v phi 1e-7) (d phi))
        [ 0.02; 0.08; 0.3; 0.6; 0.9 ])
    phi_ssts

let test_volume_positive_and_bounded () =
  List.iter
    (fun phi_sst ->
      for i = 0 to 200 do
        let phi = float_of_int i /. 200.0 in
        let v = smooth ~v0:1.0 ~phi_sst phi in
        check_true "positive" (v > 0.0);
        check_true "at most final volume" (v <= 1.0 +. 1e-9)
      done)
    phi_ssts

let test_volume_monotone () =
  (* Cells never shrink while growing through the cycle. *)
  List.iter
    (fun phi_sst ->
      let v = smooth ~v0:1.0 ~phi_sst in
      let previous = ref (v 0.0) in
      for i = 1 to 400 do
        let phi = float_of_int i /. 400.0 in
        let value = v phi in
        check_true "monotone growth" (value >= !previous -. 1e-9);
        previous := value
      done)
    phi_ssts

let test_v0_scaling () =
  let phi_sst = 0.15 in
  check_close ~tol:1e-12 "v0 scales volumes"
    (3.0 *. smooth ~v0:1.0 ~phi_sst 0.5)
    (smooth ~v0:3.0 ~phi_sst 0.5)

let test_beta () =
  (* beta = v'(1)/V0 = 0.4/(1 - phi_sst) for both models, measured on the
     library's volumes. *)
  List.iter
    (fun v ->
      check_close ~tol:1e-6 "beta = v'(1)" (0.4 /. 0.8)
        ((v 1.0 -. v (1.0 -. 1e-4)) /. 1e-4))
    [ linear ~v0:1.0 ~phi_sst:0.2; smooth ~v0:1.0 ~phi_sst:0.2 ]

let test_daughters_share_mother_volume () =
  (* v(0) + v(phi_sst) = v(1): the two daughters exactly split the mother. *)
  List.iter
    (fun phi_sst ->
      List.iter
        (fun v ->
          check_close ~tol:1e-9 "0.4 + 0.6 = 1" (v 1.0) (v 0.0 +. v phi_sst))
        [ linear ~v0:2.5 ~phi_sst; smooth ~v0:2.5 ~phi_sst ])
    phi_ssts

let test_eval_dispatch () =
  let phi_sst = 0.15 in
  let p_linear = Cellpop.Params.plos_2009 in
  let p_smooth = Cellpop.Params.paper_2011 in
  (* The 2009 model's first segment is linear, v(φ_sst/4) = 0.45·V0; the
     smooth model's cubic is not. *)
  check_close ~tol:1e-12 "dispatch linear" 0.45
    (Cellpop.Volume.eval p_linear ~phi_sst (phi_sst /. 4.0));
  check_true "dispatch smooth"
    (Float.abs (Cellpop.Volume.eval p_smooth ~phi_sst (phi_sst /. 4.0) -. 0.45) > 1e-3)

let prop_smooth_between_04_and_1 =
  qcheck ~count:200 "smooth volume within [0.4, 1]"
    QCheck2.Gen.(pair (float_range 0.05 0.5) (float_range 0.0 1.0))
    (fun (phi_sst, phi) ->
      let v = smooth ~v0:1.0 ~phi_sst phi in
      v >= 0.4 -. 1e-9 && v <= 1.0 +. 1e-9)

let tests =
  [
    ( "volume",
      [
        case "partition values (eqs 6-8)" test_partition_values;
        case "smooth rate continuity (eqs 9-10)" test_smooth_rate_continuity;
        case "linear model slope jump" test_linear_model_violates_rate_continuity;
        case "smooth derivative fd" test_smooth_derivative_fd;
        case "positive and bounded" test_volume_positive_and_bounded;
        case "monotone growth" test_volume_monotone;
        case "v0 scaling" test_v0_scaling;
        case "beta" test_beta;
        case "daughters share mother volume" test_daughters_share_mother_volume;
        case "params dispatch" test_eval_dispatch;
        prop_smooth_between_04_and_1;
      ] );
  ]
