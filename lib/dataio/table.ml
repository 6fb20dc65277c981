type t = { title : string; headers : string list; mutable rows : float array list }

let create ~title ~headers = { title; headers; rows = [] }

let add_row t row =
  assert (Array.length row = List.length t.headers);
  t.rows <- row :: t.rows

let add_rows t columns =
  match columns with
  | [] -> ()
  | first :: rest ->
    let n = Array.length first in
    List.iter (fun c -> assert (Array.length c = n)) rest;
    for i = 0 to n - 1 do
      add_row t (Array.of_list (List.map (fun c -> c.(i)) columns))
    done

let to_string ?(precision = 4) t =
  let buf = Buffer.create 1024 in
  let rows = List.rev t.rows in
  let cells = List.map (fun r -> Array.to_list (Array.map (Printf.sprintf "%.*g" precision) r)) rows in
  let widths =
    List.mapi
      (fun j h ->
        List.fold_left (fun w row -> Stdlib.max w (String.length (List.nth row j)))
          (String.length h) cells)
      t.headers
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let pad width s = String.make (width - String.length s) ' ' ^ s in
  List.iteri
    (fun j h ->
      if j > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (pad (List.nth widths j) h))
    t.headers;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      List.iteri
        (fun j cell ->
          if j > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf (pad (List.nth widths j) cell))
        row;
      Buffer.add_char buf '\n')
    cells;
  Buffer.contents buf

let output ?precision oc t = output_string oc (to_string ?precision t)

