open Numerics

type entry = {
  gene : int;
  key : string;
  outcome : (Solver.estimate, Robust.Error.t) result;
}

(* All floats travel as hexadecimal literals ("%h") inside JSON strings:
   float_of_string round-trips them bit-for-bit, which is what makes a
   resumed run reproduce the uninterrupted run exactly. *)
let hex = Printf.sprintf "%h"

let float_of_token s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> failwith (Printf.sprintf "checkpoint: unreadable float %S" s)

(* ---------------- content keys ---------------- *)

(* FNV-1a 64-bit over length-prefixed parts (the prefix keeps part
   boundaries from aliasing: ["ab";"c"] and ["a";"bc"] hash apart). *)
type key_state = int64

let key_seed = 0xcbf29ce484222325L

let feed_key h parts =
  let h = ref h in
  let feed s =
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s
  in
  List.iter
    (fun part ->
      feed (string_of_int (String.length part));
      feed ":";
      feed part)
    parts;
  !h

let finish_key = Printf.sprintf "%016Lx"

let vec_part v = String.concat "," (Array.to_list (Array.map hex v))

let mat_part (m : Mat.t) =
  String.concat ";" (List.init m.Mat.rows (fun i -> vec_part (Mat.row m i)))

(* ---------------- JSON writing ---------------- *)

let vec_json v =
  "[" ^ String.concat "," (Array.to_list (Array.map (fun x -> "\"" ^ hex x ^ "\"") v)) ^ "]"

let estimate_json (e : Solver.estimate) =
  Printf.sprintf
    {|{"alpha":%s,"profile":%s,"fitted":%s,"lambda":"%s","cost":"%s","data_misfit":"%s","roughness":"%s","active_positivity":%d,"qp_iterations":%d}|}
    (vec_json e.Solver.alpha) (vec_json e.Solver.profile) (vec_json e.Solver.fitted)
    (hex e.Solver.lambda) (hex e.Solver.cost) (hex e.Solver.data_misfit)
    (hex e.Solver.roughness) e.Solver.active_positivity e.Solver.qp_iterations

let error_json (e : Robust.Error.t) =
  let cls = Robust.Error.class_name e in
  let payload =
    match e with
    | Robust.Error.Ill_conditioned { cond } -> Printf.sprintf {|,"cond":"%s"|} (hex cond)
    | Qp_stalled { iterations } -> Printf.sprintf {|,"iterations":%d|} iterations
    | Non_finite { stage } ->
      Printf.sprintf {|,"stage":"%s"|} (Obs.Export.json_escape stage)
    | Invalid_input { field; why } ->
      Printf.sprintf {|,"field":"%s","why":"%s"|} (Obs.Export.json_escape field)
        (Obs.Export.json_escape why)
    | Kernel_degenerate -> ""
    | Budget_exhausted { resource; limit; spent } ->
      Printf.sprintf {|,"resource":"%s","limit":"%s","spent":"%s"|}
        (Obs.Export.json_escape resource) (hex limit) (hex spent)
    | Unexpected { description } ->
      Printf.sprintf {|,"description":"%s"|} (Obs.Export.json_escape description)
  in
  Printf.sprintf {|{"class":"%s"%s}|} cls payload

let entry_json { gene; key; outcome } =
  match outcome with
  | Ok est -> Printf.sprintf {|{"gene":%d,"key":"%s","ok":%s}|} gene key (estimate_json est)
  | Error e -> Printf.sprintf {|{"gene":%d,"key":"%s","error":%s}|} gene key (error_json e)

let header_json = {|{"journal":"deconv-batch","version":1}|}

(* ---------------- JSON reading ---------------- *)

open Obs.Export

let field name fields = List.assoc_opt name fields

let str_field name fields =
  match field name fields with
  | Some (J_str s) -> s
  | _ -> failwith (Printf.sprintf "checkpoint: missing string field %S" name)

let int_field name fields =
  match field name fields with
  | Some (J_num s) -> (
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith (Printf.sprintf "checkpoint: non-integer field %S" name))
  | _ -> failwith (Printf.sprintf "checkpoint: missing integer field %S" name)

let float_field name fields = float_of_token (str_field name fields)

let vec_field name fields =
  match field name fields with
  | Some (J_arr items) ->
    Array.of_list
      (List.map
         (function
           | J_str s -> float_of_token s
           | _ -> failwith (Printf.sprintf "checkpoint: non-string element in %S" name))
         items)
  | _ -> failwith (Printf.sprintf "checkpoint: missing vector field %S" name)

let estimate_of_fields fields : Solver.estimate =
  {
    Solver.alpha = vec_field "alpha" fields;
    profile = vec_field "profile" fields;
    fitted = vec_field "fitted" fields;
    lambda = float_field "lambda" fields;
    cost = float_field "cost" fields;
    data_misfit = float_field "data_misfit" fields;
    roughness = float_field "roughness" fields;
    active_positivity = int_field "active_positivity" fields;
    qp_iterations = int_field "qp_iterations" fields;
  }

let error_of_fields fields : Robust.Error.t =
  match str_field "class" fields with
  | "ill_conditioned" -> Ill_conditioned { cond = float_field "cond" fields }
  | "qp_stalled" -> Qp_stalled { iterations = int_field "iterations" fields }
  | "non_finite" -> Non_finite { stage = str_field "stage" fields }
  | "invalid_input" ->
    Invalid_input { field = str_field "field" fields; why = str_field "why" fields }
  | "kernel_degenerate" -> Kernel_degenerate
  | "budget_exhausted" ->
    Budget_exhausted
      {
        resource = str_field "resource" fields;
        limit = float_field "limit" fields;
        spent = float_field "spent" fields;
      }
  | "unexpected" -> Unexpected { description = str_field "description" fields }
  | cls -> failwith (Printf.sprintf "checkpoint: unknown error class %S" cls)

let entry_of_line line =
  match json_of_string line with
  | Error e -> Error e
  | Ok (J_obj fields) -> (
    match
      let gene = int_field "gene" fields in
      let key = str_field "key" fields in
      match (field "ok" fields, field "error" fields) with
      | Some (J_obj ok), None -> { gene; key; outcome = Ok (estimate_of_fields ok) }
      | None, Some (J_obj err) -> { gene; key; outcome = Error (error_of_fields err) }
      | _ -> failwith "checkpoint: entry needs exactly one of \"ok\"/\"error\""
    with
    | entry -> Ok entry
    | exception Failure msg -> Error msg)
  | Ok _ -> Error "checkpoint: entry line is not a JSON object"

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    let finally () = close_in_noerr ic in
    Fun.protect ~finally (fun () ->
        let rec lines acc n =
          match input_line ic with
          | line -> lines (if String.trim line = "" then acc else (n, line) :: acc) (n + 1)
          | exception End_of_file -> List.rev acc
        in
        match lines [] 1 with
        | [] -> Ok []
        | (_, first) :: rest -> (
          match json_of_string first with
          | Ok (J_obj fields)
            when (match field "journal" fields with
                 | Some (J_str "deconv-batch") -> true
                 | _ -> false) ->
            let parse (n, line) =
              match entry_of_line line with
              | Ok e -> Ok e
              | Error msg -> Error (Printf.sprintf "%s:%d: %s" path n msg)
            in
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | x :: tl -> ( match parse x with Ok e -> go (e :: acc) tl | Error _ as e -> e)
            in
            go [] rest
          | _ -> Error (Printf.sprintf "%s:1: not a deconv-batch journal header" path)))
  end

(* ---------------- the journal ---------------- *)

type t = { path : string; mutable entries : entry list (* in append order *) }

let entries t = t.entries

let flush_to_disk t =
  Dataio.Atomic_file.write t.path (fun oc ->
      output_string oc header_json;
      output_char oc '\n';
      List.iter
        (fun e ->
          output_string oc (entry_json e);
          output_char oc '\n')
        t.entries)

let create ~path =
  let t = { path; entries = [] } in
  (* Materialize the (empty) journal immediately so a stale file from an
     unrelated earlier run can never be replayed by a later --resume. *)
  flush_to_disk t;
  t

let resume ~path =
  match load ~path with
  | Ok entries -> Ok { path; entries }
  | Error _ as e -> e

let append t new_entries =
  if new_entries <> [] then begin
    t.entries <- t.entries @ new_entries;
    flush_to_disk t
  end

let find entries ~gene ~key =
  List.find_opt (fun e -> e.gene = gene && String.equal e.key key) entries
