open Numerics

type params = { a : float; b : float; c : float; d : float }

(* Tuned so the closed orbit through default_x0 has a period of ~150 min,
   x1 amplitude ~0.3–3 and x2 amplitude ~1–12, echoing the paper's Fig. 2. *)
let default_params = { a = 0.045620; b = 0.009124; c = 0.038017; d = 0.045620 }

let default_x0 = [| 0.35; 5.0 |]

let system p : Ode.system =
 fun _t y ->
  let x1 = y.(0) and x2 = y.(1) in
  [| x1 *. (p.a -. (p.b *. x2)); x2 *. ((p.c *. x1) -. p.d) |]

let equilibrium p = [| p.d /. p.c; p.a /. p.b |]

let simulate ?(rtol = 1e-9) p ~x0 ~times = Ode.rk45 ~rtol ~atol:1e-12 (system p) ~y0:x0 ~times

let period ?(t_max = 1000.0) p ~x0 =
  let eq = equilibrium p in
  let n = 20000 in
  let times = Vec.linspace 0.0 t_max n in
  let sol = simulate p ~x0 ~times in
  (* Collect upward crossings of x1 through its equilibrium. *)
  let crossings = ref [] in
  for i = 0 to n - 2 do
    let a = Mat.get sol.Ode.states i 0 -. eq.(0) in
    let b = Mat.get sol.Ode.states (i + 1) 0 -. eq.(0) in
    if a < 0.0 && b >= 0.0 then begin
      let t0 = times.(i) and t1 = times.(i + 1) in
      let t_cross = t0 +. ((t1 -. t0) *. (-.a /. (b -. a))) in
      crossings := t_cross :: !crossings
    end
  done;
  match List.rev !crossings with
  | c0 :: rest when List.length rest >= 1 ->
    (* Average spacing over all observed cycles for robustness. *)
    let last = List.nth rest (List.length rest - 1) in
    (last -. c0) /. float_of_int (List.length rest)
  | _ -> failwith "Lotka_volterra.period: fewer than two crossings; increase t_max"

let phase_profiles p ~x0 ~n_phi =
  assert (n_phi >= 2);
  let t = period p ~x0 in
  let bin_width = 1.0 /. float_of_int n_phi in
  let phases = Array.init n_phi (fun j -> (float_of_int j +. 0.5) *. bin_width) in
  let times = Array.map (fun phi -> phi *. t) phases in
  (* rk45 requires the first output time; prepend 0 then drop it. *)
  let times_full = Array.append [| 0.0 |] times in
  let sol = simulate p ~x0 ~times:times_full in
  let f1 = Array.init n_phi (fun j -> Mat.get sol.Ode.states (j + 1) 0) in
  let f2 = Array.init n_phi (fun j -> Mat.get sol.Ode.states (j + 1) 1) in
  (phases, f1, f2)
