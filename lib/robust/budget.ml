type t = {
  max_seconds : float option;
  max_iterations : int option;
  started : float;
  mutable iterations : int;
}

let create ?max_seconds ?max_iterations () =
  (match max_seconds with
  | Some s when not (Float.is_finite s && s > 0.) ->
    Error.raise_error
      (Error.Invalid_input { field = "max_seconds"; why = "must be finite and > 0" })
  | _ -> ());
  (match max_iterations with
  | Some i when i < 1 ->
    Error.raise_error (Error.Invalid_input { field = "max_iterations"; why = "must be >= 1" })
  | _ -> ());
  { max_seconds; max_iterations; started = Obs.Clock.now (); iterations = 0 }

let unlimited () = create ()

let elapsed t = Obs.Clock.now () -. t.started

let check t =
  (match t.max_iterations with
  | Some cap when t.iterations > cap ->
    Error.raise_error
      (Error.Budget_exhausted
         { resource = "iterations"; limit = float_of_int cap; spent = float_of_int t.iterations })
  | _ -> ());
  match t.max_seconds with
  | Some cap ->
    let spent = elapsed t in
    if spent > cap then
      Error.raise_error (Error.Budget_exhausted { resource = "seconds"; limit = cap; spent })
  | None -> ()

let tick t =
  t.iterations <- t.iterations + 1;
  check t

let on_iteration t = fun (_ : int) -> tick t
