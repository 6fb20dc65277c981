open Numerics

type estimate = {
  profile : Vec.t;
  fitted : Vec.t;
  lambda : float;
  data_misfit : float;
  roughness : float;
}

(* Row i approximates f''(phi_{i+1}) = (f_i - 2 f_{i+1} + f_{i+2}) / h²;
   scaling rows by sqrt(h) makes ||D f||² approximate the integral ∫f''². *)
let second_difference n ~bin_width =
  assert (n >= 3);
  let h = bin_width in
  let scale = sqrt h /. (h *. h) in
  Mat.init (n - 2) n (fun i j ->
      if j = i then scale
      else if j = i + 1 then -2.0 *. scale
      else if j = i + 2 then scale
      else 0.0)

let solve ?(lambda = 1e-4) ?(use_positivity = true) kernel ~measurements ?sigmas () =
  assert (lambda >= 0.0);
  let a = Forward.matrix_grid kernel in
  let n_m, n_phi = Mat.dims a in
  assert (Array.length measurements = n_m);
  let weights =
    match sigmas with
    | Some s ->
      assert (Array.length s = n_m);
      Array.map (fun x -> 1.0 /. (x *. x)) s
    | None -> Vec.ones n_m
  in
  let d2 = second_difference n_phi ~bin_width:kernel.Cellpop.Kernel.bin_width in
  let penalty = Mat.gram d2 in
  let normal = Optimize.Ridge.normal_matrix ~a ~weights ~penalty ~lambda in
  let h = Mat.scale 2.0 normal in
  let g_lin = Vec.scale (-2.0) (Mat.tmv a (Vec.mul weights measurements)) in
  let profile =
    if use_positivity then begin
      match
        Optimize.Qp.solve
          { Optimize.Qp.h; g = g_lin; ineq = Some (Mat.identity n_phi, Vec.zeros n_phi) }
      with
      | { Optimize.Qp.status = Optimize.Qp.Converged; x; _ } -> x
      | { Optimize.Qp.status = Optimize.Qp.Stalled; iterations; _ } ->
        Robust.Error.raise_error (Robust.Error.Qp_stalled { iterations })
    end
    else Optimize.Qp.unconstrained h g_lin
  in
  let fitted = Mat.mv a profile in
  let residuals = Vec.sub measurements fitted in
  let data_misfit =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> acc := !acc +. (weights.(i) *. r *. r)) residuals;
    !acc
  in
  let rough = Mat.mv d2 profile in
  { profile; fitted; lambda; data_misfit; roughness = Vec.dot rough rough }
