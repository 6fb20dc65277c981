type error = { line : int; column : int; message : string }

let error_to_string e = Printf.sprintf "line %d, column %d: %s" e.line e.column e.message

let write ~path ~header ~rows =
  Atomic_file.write path (fun oc ->
      if header <> [] then output_string oc (String.concat "," header ^ "\n");
      List.iter
        (fun row ->
          let fields = Array.to_list (Array.map (Printf.sprintf "%.10g") row) in
          output_string oc (String.concat "," fields ^ "\n"))
        rows)

let write_columns ~path ~header ~columns =
  match columns with
  | [] -> write ~path ~header ~rows:[]
  | first :: rest ->
    let n = Array.length first in
    List.iter (fun c -> assert (Array.length c = n)) rest;
    let rows =
      List.init n (fun i -> Array.of_list (List.map (fun c -> c.(i)) columns))
    in
    write ~path ~header ~rows

let parse_line line = String.split_on_char ',' (String.trim line)

let is_number s = match float_of_string_opt (String.trim s) with Some _ -> true | None -> false

(* Parse one data line; [lineno] is the 1-based physical line number used in
   error reports. *)
let parse_row ~lineno ~expected_width fields =
  let width = List.length fields in
  match expected_width with
  | Some w when width <> w ->
    (* Point at the first offending field: the first extra one when the row
       is too long, the first missing one when it is too short. *)
    Error
      { line = lineno; column = Stdlib.min width w + 1;
        message = Printf.sprintf "row has %d fields, expected %d" width w }
  | _ ->
    let row = Array.make width 0.0 in
    let rec fill j = function
      | [] -> Ok row
      | f :: rest -> (
        match float_of_string_opt (String.trim f) with
        | Some v ->
          row.(j) <- v;
          fill (j + 1) rest
        | None ->
          Error
            { line = lineno; column = j + 1;
              message = Printf.sprintf "%S is not a number" (String.trim f) })
    in
    fill 0 fields

let read_result ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Keep physical line numbers alongside non-blank lines. *)
      let lines = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then lines := (!lineno, line) :: !lines
         done
       with End_of_file -> ());
      match List.rev !lines with
      | [] -> Ok ([], [])
      | (first_no, first) :: rest ->
        let first_fields = parse_line first in
        let has_header = List.exists (fun f -> not (is_number f)) first_fields in
        let header = if has_header then first_fields else [] in
        let data_lines = if has_header then rest else (first_no, first) :: rest in
        let rec go acc expected_width = function
          | [] -> Ok (header, List.rev acc)
          | (lineno, line) :: rest -> (
            match parse_row ~lineno ~expected_width (parse_line line) with
            | Error e -> Error e
            | Ok row -> go (row :: acc) (Some (Array.length row)) rest)
        in
        go [] None data_lines)

let read_columns_result ~path =
  match read_result ~path with
  | Error e -> Error e
  | Ok (header, rows) -> (
    match rows with
    | [] -> Ok (header, [])
    | first :: _ ->
      (* Equal widths are guaranteed by read_result. *)
      let n_cols = Array.length first in
      let columns =
        List.init n_cols (fun j -> Array.of_list (List.map (fun r -> r.(j)) rows))
      in
      Ok (header, columns))

