open Numerics

type t = {
  kernel : Cellpop.Kernel.t;
  basis : Spline.Basis.t;
  measurements : Vec.t;
  sigmas : Vec.t;
  params : Cellpop.Params.t;
  design : Mat.t;
  penalty : Mat.t;
  equality : Mat.t option;
  null_space : Mat.t;
  positivity : Mat.t option;
}

(* The typed length checks of [create] and of every re-pointing through
   [with_data]: one measurement per kernel time, one sigma per
   measurement. *)
let check_lengths (kernel : Cellpop.Kernel.t) ?sigmas measurements =
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
  (* Sigma positivity/finiteness is deliberately NOT asserted here:
     [validate] reports it as a typed error, and the robust solver can
     repair it. *)
  match sigmas with
  | Some s when Array.length s <> n_m ->
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         {
           field = "sigmas";
           why = Printf.sprintf "%d sigmas for %d measurements" (Array.length s) n_m;
         })
  | Some _ | None -> ()

let create ?(use_positivity = true) ?(use_conservation = true) ?(use_rate_continuity = true)
    ?sigmas ~kernel ~basis ~measurements ~params () =
  check_lengths kernel ?sigmas measurements;
  let sigmas = Option.value sigmas ~default:(Vec.ones (Array.length measurements)) in
  Obs.Span.with_ "problem.create" (fun sp ->
      (* Everything below depends on (kernel, basis, params, flags) only,
         so it is assembled once here: every λ candidate, bootstrap
         replicate, batch gene and input repair re-points the data
         through [with_data] and reads the same matrices. Rebuilding the
         constraint rows (Simpson integrals of every basis function) per
         solve would cost more than the QP itself. *)
      let equality =
        match
          (if use_conservation then [ Constraints.conservation_row params basis ] else [])
          @ if use_rate_continuity then [ Constraints.rate_continuity_row params basis ] else []
        with
        | [] -> None
        | rows -> Some (Mat.of_rows (Array.of_list rows))
      in
      (* The equality rows hold by construction: solves run on the free
         coefficients β with α = Zβ. Dependent rows leave no such Z. *)
      let null_space =
        match
          Option.fold ~none:(Mat.identity basis.Spline.Basis.size) ~some:Linalg.null_space
            equality
        with
        | z -> z
        | exception Linalg.Singular why ->
          Robust.Error.raise_error (Robust.Error.Invalid_input { field = "constraints"; why })
      in
      let positivity =
        if use_positivity then
          (* Include the interval endpoints: the conservation constraints
             act on f(0) and f(1), which lie outside the bin-center grid. *)
          let grid = Vec.concat [ [| 0.0 |]; kernel.Cellpop.Kernel.phases; [| 1.0 |] ] in
          Some (Mat.matmul (Constraints.positivity_rows basis ~grid) null_space)
        else None
      in
      let rows = Option.fold ~none:0 ~some:(fun (m : Mat.t) -> m.Mat.rows) in
      Obs.Span.set_int sp "m_eq" (rows equality);
      Obs.Span.set_int sp "m_ineq" (rows positivity);
      Obs.Metrics.incr "constraints.builds";
      {
        kernel;
        basis;
        measurements;
        sigmas;
        params;
        design = Forward.matrix_basis kernel basis;
        penalty = Spline.Penalty.second_derivative basis;
        equality;
        null_space;
        positivity;
      })

let with_data ?sigmas t measurements =
  check_lengths t.kernel ?sigmas measurements;
  { t with measurements; sigmas = Option.value sigmas ~default:t.sigmas }

let num_measurements t = Array.length t.measurements

let validate_data t =
  Result.bind (Robust.Validate.finite ~stage:"measurements" t.measurements) (fun () ->
      Robust.Validate.sigmas t.sigmas)

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
  validate_data t

let weights t = Array.map (fun s -> 1.0 /. (s *. s)) t.sigmas

let design t = t.design

let penalty t = t.penalty

let factorize t =
  Optimize.Spectral.factorize_problem ~a:(design t) ~weights:(weights t) ~penalty:(penalty t)
