type stage =
  | Validation
  | Repair
  | Constrained_qp
  | Unconstrained
  | Richardson_lucy

let stage_name = function
  | Validation -> "validation"
  | Repair -> "input repair"
  | Constrained_qp -> "constrained QP"
  | Unconstrained -> "unconstrained smoothing spline"
  | Richardson_lucy -> "Richardson-Lucy"

type attempt = {
  stage : stage;
  lambda : float;
  ridge : float;
  seconds : float;
  iterations : int;
  outcome : (unit, Error.t) result;
}

type repair = { action : string; count : int }

type t = {
  attempts : attempt list;
  condition : float;
  repairs : repair list;
  degradation : int;
  solved_by : stage;
}

let num_attempts r = List.length r.attempts

let to_string r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "solved by %s (degradation level %d)\n" (stage_name r.solved_by)
    r.degradation;
  Printf.bprintf buf "condition estimate: %.3g\n" r.condition;
  List.iter (fun { action; count } -> Printf.bprintf buf "repair: %s (%d)\n" action count)
    r.repairs;
  List.iter
    (fun a ->
      Printf.bprintf buf "  %-28s lambda=%-10.3g ridge=%-10.3g %6.1f ms %4s  %s\n"
        (stage_name a.stage) a.lambda a.ridge (1000.0 *. a.seconds)
        (if a.iterations > 0 then Printf.sprintf "%dit" a.iterations else "-")
        (match a.outcome with Ok () -> "ok" | Error e -> Error.to_string e))
    r.attempts;
  Buffer.contents buf
