open Numerics
open Testutil

(* dy/dt = -y, y(0) = 1: y(t) = exp(-t). *)
let decay : Ode.system = fun _t y -> [| -.y.(0) |]

(* Harmonic oscillator: y'' = -y as a 2D system; y(t) = cos t. *)
let harmonic : Ode.system = fun _t y -> [| y.(1); -.y.(0) |]

let final (sol : Ode.solution) component =
  Mat.get sol.Ode.states (Array.length sol.Ode.times - 1) component

let test_solution_shape () =
  let sol = Ode.rk45 decay ~y0:[| 1.0 |] ~times:(Vec.linspace 0.0 2.0 11) in
  Alcotest.(check int) "11 time points" 11 (Array.length sol.Ode.times);
  check_close "initial time" 0.0 sol.Ode.times.(0);
  check_close "final time" 2.0 sol.Ode.times.(10);
  check_close "initial state kept" 1.0 (Mat.get sol.Ode.states 0 0)

let test_rk45_accuracy () =
  let times = Vec.linspace 0.0 5.0 11 in
  let sol = Ode.rk45 ~rtol:1e-10 ~atol:1e-12 decay ~y0:[| 1.0 |] ~times in
  Array.iteri
    (fun i t ->
      check_close ~tol:1e-8
        (Printf.sprintf "exp(-t) at t=%g" t)
        (Float.exp (-.t))
        (Mat.get sol.Ode.states i 0))
    times

let test_rk45_dense_output () =
  (* Output times denser than the natural step size still interpolate well. *)
  let times = Vec.linspace 0.0 (2.0 *. Float.pi) 101 in
  let sol = Ode.rk45 ~rtol:1e-9 harmonic ~y0:[| 1.0; 0.0 |] ~times in
  Array.iteri
    (fun i t ->
      check_close ~tol:1e-6 "dense cos" (Float.cos t) (Mat.get sol.Ode.states i 0))
    times

let test_rk45_nonautonomous () =
  (* y' = t, y(0) = 0 -> y = t^2/2. *)
  let sys : Ode.system = fun t _y -> [| t |] in
  let times = [| 0.0; 1.0; 3.0 |] in
  let sol = Ode.rk45 sys ~y0:[| 0.0 |] ~times in
  check_close ~tol:1e-8 "t^2/2 at 3" 4.5 (Mat.get sol.Ode.states 2 0)

let test_lv_conservation () =
  (* The LV first integral is conserved along rk45 trajectories. *)
  let p = Biomodels.Lotka_volterra.default_params in
  let x0 = Biomodels.Lotka_volterra.default_x0 in
  let times = Vec.linspace 0.0 300.0 61 in
  let sol = Biomodels.Lotka_volterra.simulate p ~x0 ~times in
  let v0 = lv_conserved p x0 in
  Array.iteri
    (fun i _t ->
      let y = Mat.row sol.Ode.states i in
      check_rel ~tol:1e-6 "LV invariant" v0 (lv_conserved p y))
    times

let tests =
  [
    ( "ode",
      [
        case "solution shape" test_solution_shape;
        case "rk45 accuracy on decay" test_rk45_accuracy;
        case "rk45 dense output" test_rk45_dense_output;
        case "rk45 nonautonomous" test_rk45_nonautonomous;
        case "rk45 conserves LV invariant" test_lv_conservation;
      ] );
  ]
