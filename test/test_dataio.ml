open Testutil

let temp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_csv_roundtrip () =
  let path = temp_path "deconv_test_roundtrip.csv" in
  Dataio.Csv.write_columns ~path ~header:[ "a"; "b" ]
    ~columns:[ [| 1.0; -3.0 |]; [| 2.5; 4.0e-3 |] ];
  let header, read_rows = read_csv path in
  Alcotest.(check (list string)) "header" [ "a"; "b" ] header;
  Alcotest.(check int) "row count" 2 (List.length read_rows);
  check_vec ~tol:1e-12 "first row" [| 1.0; 2.5 |] (List.nth read_rows 0);
  check_vec ~tol:1e-12 "second row" [| -3.0; 4.0e-3 |] (List.nth read_rows 1);
  Sys.remove path

let test_csv_headerless () =
  let path = temp_path "deconv_test_headerless.csv" in
  Dataio.Csv.write_columns ~path ~header:[] ~columns:[ [| 7.0 |] ];
  let header, rows = read_csv path in
  Alcotest.(check (list string)) "no header" [] header;
  (match rows with
  | row :: _ -> check_vec "data kept" [| 7.0 |] row
  | [] -> Alcotest.fail "expected one data row");
  Sys.remove path

let test_csv_columns () =
  let path = temp_path "deconv_test_columns.csv" in
  Dataio.Csv.write_columns ~path ~header:[ "t"; "g" ]
    ~columns:[ [| 0.0; 1.0; 2.0 |]; [| 5.0; 6.0; 7.0 |] ];
  let header, columns =
    match Dataio.Csv.read_columns_result ~path with
    | Ok contents -> contents
    | Error e -> Alcotest.failf "unexpected CSV error: %s" (Dataio.Csv.error_to_string e)
  in
  Alcotest.(check (list string)) "header" [ "t"; "g" ] header;
  check_vec "first column" [| 0.0; 1.0; 2.0 |] (List.nth columns 0);
  check_vec "second column" [| 5.0; 6.0; 7.0 |] (List.nth columns 1);
  Sys.remove path

let test_csv_empty () =
  let path = temp_path "deconv_test_empty.csv" in
  Dataio.Csv.write_columns ~path ~header:[] ~columns:[];
  let header, rows = read_csv path in
  Alcotest.(check (list string)) "no header" [] header;
  Alcotest.(check int) "no rows" 0 (List.length rows);
  Sys.remove path

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_rendering () =
  let t = Dataio.Table.create ~title:"demo" ~headers:[ "x"; "y" ] in
  Dataio.Table.add_row t [| 1.0; 2.0 |];
  Dataio.Table.add_row t [| 30.5; -4.25 |];
  let s = capture (fun oc -> Dataio.Table.output oc t) in
  check_true "title present" (String.length s > 0 && String.sub s 0 7 = "== demo");
  check_true "contains first row" (contains_substring s "30.5")

let test_table_add_rows_columns () =
  let t = Dataio.Table.create ~title:"cols" ~headers:[ "a"; "b" ] in
  Dataio.Table.add_rows t [ [| 1.0; 2.0 |]; [| 10.0; 20.0 |] ];
  let s = capture (fun oc -> Dataio.Table.output oc t) in
  (* Two data lines plus title and header. *)
  Alcotest.(check int) "line count" 4 (List.length (String.split_on_char '\n' (String.trim s)))

let test_judd_dataset_shape () =
  Alcotest.(check int) "six time points" 6 (Array.length Dataio.Datasets.judd_times);
  for i = 0 to 5 do
    let total =
      Dataio.Datasets.judd_sw.(i) +. Dataio.Datasets.judd_ste.(i)
      +. Dataio.Datasets.judd_stepd.(i) +. Dataio.Datasets.judd_stlpd.(i)
    in
    check_close ~tol:1e-9 "fractions sum to 1" 1.0 total
  done;
  (* Qualitative shapes preserved by the digitization. *)
  check_true "ste decays"
    (Dataio.Datasets.judd_ste.(5) < Dataio.Datasets.judd_ste.(0));
  check_true "sw rises late" (Dataio.Datasets.judd_sw.(5) > Dataio.Datasets.judd_sw.(0));
  check_true "stlpd rises" (Dataio.Datasets.judd_stlpd.(5) > Dataio.Datasets.judd_stlpd.(0))

let test_measurement_grids () =
  Alcotest.(check int) "13 lv samples" 13 (Array.length Dataio.Datasets.lv_measurement_times);
  check_close "lv last sample" 180.0 Dataio.Datasets.lv_measurement_times.(12);
  Alcotest.(check int) "13 ftsz samples" 13 (Array.length Dataio.Datasets.ftsz_measurement_times);
  check_close ~tol:1e-9 "ftsz last sample" 160.0 Dataio.Datasets.ftsz_measurement_times.(12)

let test_ascii_plot () =
  let s =
    capture (fun oc ->
        Dataio.Ascii_plot.output ~width:40 ~height:10 ~title:"t" oc
          [ { Dataio.Ascii_plot.label = "series"; glyph = '*'; xs = [| 0.0; 1.0 |]; ys = [| 0.0; 1.0 |] } ])
  in
  check_true "contains glyph" (String.contains s '*');
  check_true "contains legend" (String.length s > 40);
  let empty = capture (fun oc -> Dataio.Ascii_plot.output oc []) in
  Alcotest.(check string) "empty plot" "(empty plot)\n" empty

(* Files in [dir] whose names start with [prefix]: the atomic writer's
   temp files are ".<basename>.<random>.tmp" in the destination's
   directory. *)
let temp_siblings dir prefix =
  List.filter (String.starts_with ~prefix) (Array.to_list (Sys.readdir dir))

let test_atomic_write_replaces () =
  let dir = Filename.temp_dir "deconv_atomic" "" in
  let path = Filename.concat dir "out.txt" in
  Dataio.Atomic_file.write path (fun oc -> output_string oc "first\n");
  Dataio.Atomic_file.write path (fun oc -> output_string oc "second\n");
  let text = In_channel.with_open_bin path In_channel.input_all in
  let leftovers = temp_siblings dir ".out.txt." in
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.(check string) "the last write wins, whole" "second\n" text;
  Alcotest.(check (list string)) "no temp file left behind" [] leftovers

let test_atomic_write_failure_keeps_old () =
  let dir = Filename.temp_dir "deconv_atomic" "" in
  let path = Filename.concat dir "out.txt" in
  Dataio.Atomic_file.write path (fun oc -> output_string oc "kept\n");
  let raised =
    match
      Dataio.Atomic_file.write path (fun oc ->
          output_string oc "torn";
          raise Exit)
    with
    | () -> false
    | exception Exit -> true
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let leftovers = temp_siblings dir ".out.txt." in
  Sys.remove path;
  Sys.rmdir dir;
  check_true "the body's exception is re-raised" raised;
  Alcotest.(check string) "the old content survives" "kept\n" text;
  Alcotest.(check (list string)) "the temp file is removed" [] leftovers

let tests =
  [
    ( "dataio",
      [
        case "csv roundtrip" test_csv_roundtrip;
        case "csv headerless" test_csv_headerless;
        case "csv columns" test_csv_columns;
        case "csv empty" test_csv_empty;
        case "table rendering" test_table_rendering;
        case "table add_rows" test_table_add_rows_columns;
        case "judd dataset shape" test_judd_dataset_shape;
        case "measurement grids" test_measurement_grids;
        case "ascii plot" test_ascii_plot;
        case "atomic write replaces" test_atomic_write_replaces;
        case "atomic write failure keeps the old file" test_atomic_write_failure_keeps_old;
      ] );
  ]
