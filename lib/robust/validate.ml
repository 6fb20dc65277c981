open Numerics

let ( let* ) = Result.bind

let all_finite v = Array.for_all Float.is_finite v

let finite ~stage v =
  if all_finite v then Ok () else Error (Error.Non_finite { stage })

(* The weight is computed exactly as the fit computes it, so a σ passes
   only if the weight the fit will use is itself finite and positive:
   σ = 1e-160 is finite and positive, but 1/σ² overflows. *)
let usable_sigma s =
  let w = 1.0 /. (s *. s) in
  Float.is_finite s && s > 0.0 && Float.is_finite w && w > 0.0

let sigmas v =
  let bad = ref None in
  Array.iteri (fun i s -> if !bad = None && not (usable_sigma s) then bad := Some (i, s)) v;
  match !bad with
  | None -> Ok ()
  | Some (i, s) ->
    Error
      (Error.Invalid_input
         {
           field = "sigmas";
           why = Printf.sprintf "sigma %d is %g, it and 1/sigma^2 must be finite and > 0" i s;
         })

let times ~field v =
  let* () = finite ~stage:field v in
  let n = Array.length v in
  let bad = ref None in
  for i = 0 to n - 1 do
    if !bad = None then
      if v.(i) < 0.0 then
        bad := Some (Printf.sprintf "time %d is negative (%g)" i v.(i))
      else if i > 0 && v.(i) < v.(i - 1) then
        bad :=
          Some (Printf.sprintf "times not sorted: t(%d)=%g > t(%d)=%g" (i - 1) v.(i - 1) i v.(i))
  done;
  match !bad with None -> Ok () | Some why -> Error (Error.Invalid_input { field; why })

let kernel ?(mass_tol = 1e-3) (k : Cellpop.Kernel.t) =
  let n_t, n_phi = Mat.dims k.Cellpop.Kernel.q in
  let* () =
    if n_phi < 2 || n_t < 1 then
      Error
        (Error.Invalid_input
           { field = "kernel"; why = Printf.sprintf "Q is %d x %d, need >= 1 x 2" n_t n_phi })
    else if Array.length k.Cellpop.Kernel.phases <> n_phi then
      Error (Error.Invalid_input { field = "kernel"; why = "phase grid does not match Q columns" })
    else if Array.length k.Cellpop.Kernel.times <> n_t then
      Error (Error.Invalid_input { field = "kernel"; why = "time grid does not match Q rows" })
    else if not (Float.is_finite k.Cellpop.Kernel.bin_width && k.Cellpop.Kernel.bin_width > 0.0)
    then Error (Error.Invalid_input { field = "kernel"; why = "bin width must be positive" })
    else Ok ()
  in
  let* () = finite ~stage:"kernel phases" k.Cellpop.Kernel.phases in
  let* () = times ~field:"kernel times" k.Cellpop.Kernel.times in
  let rec check_rows m =
    if m = n_t then Ok ()
    else
      let row = Mat.row k.Cellpop.Kernel.q m in
      if not (all_finite row) then Error (Error.Non_finite { stage = "kernel" })
      else
        let mass = Vec.sum row *. k.Cellpop.Kernel.bin_width in
        if Float.abs (mass -. 1.0) > mass_tol then Error Error.Kernel_degenerate
        else check_rows (m + 1)
  in
  check_rows 0
