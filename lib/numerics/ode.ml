type system = float -> Vec.t -> Vec.t

type solution = { times : Vec.t; states : Mat.t }

(* Dormand–Prince coefficients. *)
let dp_c = [| 0.0; 0.2; 0.3; 0.8; 8.0 /. 9.0; 1.0; 1.0 |]

let dp_a =
  [|
    [||];
    [| 0.2 |];
    [| 3.0 /. 40.0; 9.0 /. 40.0 |];
    [| 44.0 /. 45.0; -56.0 /. 15.0; 32.0 /. 9.0 |];
    [| 19372.0 /. 6561.0; -25360.0 /. 2187.0; 64448.0 /. 6561.0; -212.0 /. 729.0 |];
    [| 9017.0 /. 3168.0; -355.0 /. 33.0; 46732.0 /. 5247.0; 49.0 /. 176.0; -5103.0 /. 18656.0 |];
    [| 35.0 /. 384.0; 0.0; 500.0 /. 1113.0; 125.0 /. 192.0; -2187.0 /. 6784.0; 11.0 /. 84.0 |];
  |]

let dp_b5 = [| 35.0 /. 384.0; 0.0; 500.0 /. 1113.0; 125.0 /. 192.0; -2187.0 /. 6784.0; 11.0 /. 84.0; 0.0 |]

let dp_b4 =
  [|
    5179.0 /. 57600.0; 0.0; 7571.0 /. 16695.0; 393.0 /. 640.0; -92097.0 /. 339200.0;
    187.0 /. 2100.0; 1.0 /. 40.0;
  |]

(* Cubic Hermite interpolation between (t0,y0,f0) and (t1,y1,f1). *)
let hermite t0 y0 f0 t1 y1 f1 t =
  let h = t1 -. t0 in
  let s = (t -. t0) /. h in
  let s2 = s *. s in
  let s3 = s2 *. s in
  let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
  let h10 = s3 -. (2.0 *. s2) +. s in
  let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
  let h11 = s3 -. s2 in
  Array.init (Array.length y0) (fun i ->
      (h00 *. y0.(i)) +. (h10 *. h *. f0.(i)) +. (h01 *. y1.(i)) +. (h11 *. h *. f1.(i)))

let rk45 ?(rtol = 1e-8) ?(atol = 1e-10) ?h0 ?h_max f ~y0 ~times =
  let n_out = Array.length times in
  assert (n_out >= 1);
  for i = 0 to n_out - 2 do
    assert (times.(i) < times.(i + 1))
  done;
  let dim = Array.length y0 in
  let t_end = times.(n_out - 1) in
  let t0 = times.(0) in
  let h_max = match h_max with Some h -> h | None -> Float.max 1e-12 ((t_end -. t0) /. 4.0) in
  let h = ref (match h0 with Some h -> h | None -> Float.min h_max ((t_end -. t0) /. 100.0)) in
  let states = Mat.zeros n_out dim in
  Mat.set_row states 0 y0;
  let t = ref t0 in
  let y = ref (Vec.copy y0) in
  let fy = ref (f t0 y0) in
  let next_out = ref 1 in
  let safety = 0.9 in
  while !next_out < n_out && !t < t_end do
    let h_try = Float.min !h (t_end -. !t) in
    (* Evaluate the seven stages. *)
    let k = Array.make 7 [||] in
    k.(0) <- !fy;
    for stage = 1 to 6 do
      let acc = Vec.copy !y in
      for j = 0 to stage - 1 do
        Vec.axpy (h_try *. dp_a.(stage).(j)) k.(j) acc
      done;
      k.(stage) <- f (!t +. (dp_c.(stage) *. h_try)) acc
    done;
    let y5 = Vec.copy !y in
    let y4 = Vec.copy !y in
    for j = 0 to 6 do
      Vec.axpy (h_try *. dp_b5.(j)) k.(j) y5;
      Vec.axpy (h_try *. dp_b4.(j)) k.(j) y4
    done;
    (* Scaled error norm. *)
    let err = ref 0.0 in
    for i = 0 to dim - 1 do
      let scale = atol +. (rtol *. Float.max (Float.abs !y.(i)) (Float.abs y5.(i))) in
      let e = (y5.(i) -. y4.(i)) /. scale in
      err := !err +. (e *. e)
    done;
    let err = sqrt (!err /. float_of_int dim) in
    if err <= 1.0 then begin
      (* Accept; FSAL: k7 is f at the new point. *)
      let t_new = !t +. h_try in
      let f_new = k.(6) in
      (* Emit any requested output times inside (t, t_new]. *)
      while
        !next_out < n_out
        && times.(!next_out) <= t_new +. 1e-12 *. Float.max 1.0 (Float.abs t_new)
      do
        let t_out = times.(!next_out) in
        let y_out =
          if Float.abs (t_out -. t_new) <= 1e-12 *. Float.max 1.0 (Float.abs t_new) then y5
          else hermite !t !y !fy t_new y5 f_new t_out
        in
        Mat.set_row states !next_out y_out;
        incr next_out
      done;
      t := t_new;
      y := y5;
      fy := f_new
    end;
    (* Step-size update (both on accept and reject). *)
    let factor =
      if Float.equal err 0.0 then 5.0 else Float.min 5.0 (Float.max 0.2 (safety *. (err ** (-0.2))))
    in
    h := Float.min h_max (h_try *. factor);
    if !h < 1e-14 *. Float.max 1.0 (Float.abs !t) then
      failwith "Ode.rk45: step size underflow (stiff system or bad tolerances?)"
  done;
  { times = Array.copy times; states }
