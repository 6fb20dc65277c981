type t =
  | Ill_conditioned of { cond : float }
  | Qp_stalled of { iterations : int }
  | Non_finite of { stage : string }
  | Invalid_input of { field : string; why : string }
  | Kernel_degenerate
  | Budget_exhausted of { resource : string; limit : float; spent : float }
  | Unexpected of { description : string }

exception Error of t

let raise_error e = raise (Error e)

let to_string = function
  | Ill_conditioned { cond } ->
    Printf.sprintf "ill-conditioned system (condition estimate %.3g)" cond
  | Qp_stalled { iterations } ->
    Printf.sprintf "QP stalled after %d iterations without converging" iterations
  | Non_finite { stage } -> Printf.sprintf "non-finite values in %s" stage
  | Invalid_input { field; why } -> Printf.sprintf "invalid %s: %s" field why
  | Kernel_degenerate -> "degenerate kernel: a time row carries no mass"
  | Budget_exhausted { resource; limit; spent } ->
    Printf.sprintf "solve budget exhausted: %.4g %s spent of a %.4g limit" spent resource
      limit
  | Unexpected { description } -> Printf.sprintf "unexpected failure: %s" description

let class_name = function
  | Ill_conditioned _ -> "ill_conditioned"
  | Qp_stalled _ -> "qp_stalled"
  | Non_finite _ -> "non_finite"
  | Invalid_input _ -> "invalid_input"
  | Kernel_degenerate -> "kernel_degenerate"
  | Budget_exhausted _ -> "budget_exhausted"
  | Unexpected _ -> "unexpected"

let equal (a : t) (b : t) =
  match (a, b) with
  | Ill_conditioned x, Ill_conditioned y -> Float.equal x.cond y.cond
  | Qp_stalled x, Qp_stalled y -> x.iterations = y.iterations
  | Non_finite x, Non_finite y -> String.equal x.stage y.stage
  | Invalid_input x, Invalid_input y ->
    String.equal x.field y.field && String.equal x.why y.why
  | Kernel_degenerate, Kernel_degenerate -> true
  | Budget_exhausted x, Budget_exhausted y ->
    String.equal x.resource y.resource && Float.equal x.limit y.limit
    && Float.equal x.spent y.spent
  | Unexpected x, Unexpected y -> String.equal x.description y.description
  | _ -> false

let recoverable = function
  | Ill_conditioned _ | Qp_stalled _ | Non_finite _ -> true
  | Invalid_input { field; _ } -> String.equal field "sigmas"
  | Kernel_degenerate -> false
  (* Retrying after a blown budget would only spend more of the resource
     the caller capped; the cascade must stop, not degrade. *)
  | Budget_exhausted _ -> false
  | Unexpected _ -> false

let of_exn = function
  | Error e -> e
  | e -> Unexpected { description = Printexc.to_string e }
