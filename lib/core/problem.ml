open Numerics

type t = {
  kernel : Cellpop.Kernel.t;
  basis : Spline.Basis.t;
  measurements : Vec.t;
  sigmas : Vec.t;
  params : Cellpop.Params.t;
  use_positivity : bool;
  use_conservation : bool;
  use_rate_continuity : bool;
  design : Mat.t;
  penalty : Mat.t;
}

let create ?(use_positivity = true) ?(use_conservation = true) ?(use_rate_continuity = true)
    ?sigmas ~kernel ~basis ~measurements ~params () =
  let n_m = Array.length measurements in
  if Array.length kernel.Cellpop.Kernel.times <> n_m then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         {
           field = "measurements";
           why =
             Printf.sprintf "%d measurements but kernel has %d times" n_m
               (Array.length kernel.Cellpop.Kernel.times);
         });
  let sigmas =
    match sigmas with
    | Some s ->
      if Array.length s <> n_m then
        Robust.Error.raise_error
          (Robust.Error.Invalid_input
             {
               field = "sigmas";
               why =
                 Printf.sprintf "%d sigmas for %d measurements" (Array.length s) n_m;
             });
      (* Sigma positivity/finiteness is deliberately NOT asserted here:
         [validate] reports it as a typed error, and the robust solver can
         repair it. *)
      s
    | None -> Vec.ones n_m
  in
  {
    kernel;
    basis;
    measurements;
    sigmas;
    params;
    use_positivity;
    use_conservation;
    use_rate_continuity;
    (* Assembled once here: kernel- and basis-derived matrices are
       invariant under the record updates the codebase performs (new
       measurements/sigmas for bootstrap resamples and input repair), and
       recomputing them dominated every λ-sweep before the spectral fast
       path. Swapping the kernel or basis must go through [create]. *)
    design = Forward.matrix_basis kernel basis;
    penalty = Spline.Penalty.second_derivative basis;
  }

let num_measurements t = Array.length t.measurements

let validate t =
  let ( let* ) = Result.bind in
  let* () = Robust.Validate.kernel t.kernel in
  let* () =
    if t.basis.Spline.Basis.size < 2 then
      Error
        (Robust.Error.Invalid_input
           { field = "basis"; why = "fewer than 2 basis functions" })
    else Ok ()
  in
  let* () = Robust.Validate.finite ~stage:"measurements" t.measurements in
  Robust.Validate.sigmas t.sigmas

let weights t = Array.map (fun s -> 1.0 /. (s *. s)) t.sigmas

let design t = t.design

let penalty t = t.penalty

let spectral ?cache t =
  let a = design t in
  let weights = weights t in
  let fact = Optimize.Spectral.factorize_problem ?cache ~a ~weights ~penalty:(penalty t) () in
  (fact, Optimize.Spectral.project_data fact ~a ~weights ~b:t.measurements)
