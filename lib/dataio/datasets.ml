let judd_times = [| 75.0; 90.0; 105.0; 120.0; 135.0; 150.0 |]

(* Digitized approximation of Judd et al. 2003 as reproduced in the paper's
   Fig. 4 (bottom panel); rows sum to 1. *)
let judd_sw = [| 0.03; 0.03; 0.04; 0.06; 0.12; 0.22 |]
let judd_ste = [| 0.80; 0.65; 0.45; 0.28; 0.18; 0.12 |]
let judd_stepd = [| 0.15; 0.28; 0.40; 0.47; 0.42; 0.35 |]
let judd_stlpd = [| 0.02; 0.04; 0.11; 0.19; 0.28; 0.31 |]

let ftsz_measurement_times = Array.init 13 (fun i -> float_of_int i *. 160.0 /. 12.0)

let lv_measurement_times = Array.init 13 (fun i -> float_of_int i *. 15.0)

let load_measurements ~path =
  match Csv.read_columns_result ~path with
  | Error e -> Error e
  | Ok (_, columns) -> (
    let sorted times g sigmas =
      (* Accept unsorted files: order all columns by time. *)
      let order = Array.init (Array.length times) Fun.id in
      Array.sort (fun a b -> compare times.(a) times.(b)) order;
      let reorder v = Array.map (fun i -> v.(i)) order in
      Ok (reorder times, reorder g, Option.map reorder sigmas)
    in
    match columns with
    | [ t; g ] -> sorted t g None
    | [ t; g; s ] -> sorted t g (Some s)
    | cols ->
      Error
        { Csv.line = 1; column = List.length cols;
          message =
            Printf.sprintf "expected 2 or 3 columns (minutes,g[,sigma]), found %d"
              (List.length cols) })
