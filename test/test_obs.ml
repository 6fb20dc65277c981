(* Observability layer: mock clock, span nesting, metric aggregation,
   JSONL round-trip, zero-cost disabled path, and an end-to-end pipeline
   smoke test asserting the span hierarchy. *)

open Testutil

(* Every test that installs a sink / enables metrics / touches the clock
   cleans up through this wrapper so a failure cannot poison later tests. *)
let with_clean_obs f () =
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Export.uninstall ();
      Obs.Metrics.disable ();
      Obs.Metrics.reset ();
      Obs.Span.reset ())
    f

let span_of = function
  | Obs.Export.Span s -> s
  | Obs.Export.Metric m -> Alcotest.failf "expected a span, got metric %s" m.Obs.Export.metric_name
  | Obs.Export.Point p -> Alcotest.failf "expected a span, got point %s" p.Obs.Export.series
  | Obs.Export.Sample s -> Alcotest.failf "expected a span, got sample %s" s.Obs.Export.s_kind
  | Obs.Export.Diag d -> Alcotest.failf "expected a span, got diag %s" d.Obs.Export.d_stage

let spans events = List.filter_map (function Obs.Export.Span s -> Some s | _ -> None) events

let find_span name events =
  match List.find_opt (fun s -> String.equal s.Obs.Export.name name) (spans events) with
  | Some s -> s
  | None -> Alcotest.failf "no span named %s in trace" name

(* ---------------- clock ---------------- *)

let test_manual_clock () =
  let source, advance = Obs.Clock.manual ~start:10.0 () in
  Obs.Clock.with_source source (fun () ->
      Alcotest.(check (float 0.0)) "start" 10.0 (Obs.Clock.now ());
      advance 2.5;
      Alcotest.(check (float 0.0)) "advanced" 12.5 (Obs.Clock.now ()))

let test_clock_monotonic_clamp () =
  let t = ref 5.0 in
  Obs.Clock.with_source (fun () -> !t) (fun () ->
      Alcotest.(check (float 0.0)) "first read" 5.0 (Obs.Clock.now ());
      t := 3.0;
      (* the source stepped backwards; [now] must not *)
      Alcotest.(check (float 0.0)) "clamped" 5.0 (Obs.Clock.now ());
      t := 7.0;
      Alcotest.(check (float 0.0)) "resumes" 7.0 (Obs.Clock.now ()))

let test_with_source_restores () =
  let source, _ = Obs.Clock.manual ~start:42.0 () in
  let before = Obs.Clock.now () in
  (try Obs.Clock.with_source source (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "wall clock restored after exception" true (Obs.Clock.now () >= before)

(* ---------------- spans ---------------- *)

let test_span_nesting =
  with_clean_obs @@ fun () ->
  let source, advance = Obs.Clock.manual () in
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Clock.with_source source (fun () ->
      Obs.Span.with_ "outer" (fun outer ->
          Obs.Span.set_int outer "k" 1;
          advance 1.0;
          Obs.Span.with_ "first" (fun _ -> advance 0.25);
          Obs.Span.with_ "second" (fun sp ->
              Obs.Span.set_str sp "tag" "x";
              advance 0.5)));
  match recorded () with
  | [ first; second; outer ] ->
    let first = span_of first and second = span_of second and outer = span_of outer in
    Alcotest.(check string) "close order: first child" "first" first.Obs.Export.name;
    Alcotest.(check string) "close order: second child" "second" second.Obs.Export.name;
    Alcotest.(check string) "close order: outer last" "outer" outer.Obs.Export.name;
    Alcotest.(check (option int)) "outer is root" None outer.Obs.Export.parent;
    Alcotest.(check (option int)) "first under outer" (Some outer.Obs.Export.id)
      first.Obs.Export.parent;
    Alcotest.(check (option int)) "second under outer" (Some outer.Obs.Export.id)
      second.Obs.Export.parent;
    Alcotest.(check (float 0.0)) "first duration" 0.25
      (first.Obs.Export.stop_s -. first.Obs.Export.start_s);
    Alcotest.(check (float 0.0)) "second duration" 0.5
      (second.Obs.Export.stop_s -. second.Obs.Export.start_s);
    Alcotest.(check (float 0.0)) "outer duration" 1.75
      (outer.Obs.Export.stop_s -. outer.Obs.Export.start_s);
    Alcotest.(check bool) "outer kept its attr" true
      (List.mem_assoc "k" outer.Obs.Export.attrs)
  | evs -> Alcotest.failf "expected 3 spans, got %d events" (List.length evs)

let test_span_emits_on_exception =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  (try Obs.Span.with_ "doomed" (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span still emitted" 1 (List.length (spans (recorded ())));
  (* the stack must be clean: a fresh span is a root, not a child of [doomed] *)
  Obs.Span.with_ "after" (fun _ -> ());
  let after = find_span "after" (recorded ()) in
  Alcotest.(check (option int)) "stack popped on exception" None after.Obs.Export.parent

let test_span_disabled_is_noop =
  with_clean_obs @@ fun () ->
  Alcotest.(check bool) "tracing off" false (Obs.Span.enabled ());
  let r =
    Obs.Span.with_ "invisible" (fun sp ->
        Obs.Span.set_float sp "x" 1.0;
        17)
  in
  Alcotest.(check int) "body result passes through" 17 r;
  (* installing a sink afterwards must see nothing retroactively *)
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Alcotest.(check int) "no events recorded while disabled" 0 (List.length (recorded ()))

let test_span_typed_setters =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Span.with_ "flags" (fun sp ->
      Obs.Span.set_bool sp "converged" true;
      Obs.Span.set_bool sp "warm" false;
      Obs.Span.set_bool sp "converged" false);
  match recorded () with
  | [ ev ] ->
    let attrs = (span_of ev).Obs.Export.attrs in
    check_true "bool attribute recorded as a Bool"
      (List.assoc_opt "warm" attrs = Some (Obs.Export.Bool false));
    check_true "the last write wins"
      (List.assoc_opt "converged" attrs = Some (Obs.Export.Bool false));
    Alcotest.(check int) "one attribute per key" 2 (List.length attrs)
  | evs -> Alcotest.failf "expected one span, got %d events" (List.length evs)

(* ---------------- metrics ---------------- *)

let test_metrics_disabled_noop =
  with_clean_obs @@ fun () ->
  Obs.Metrics.incr "c";
  Obs.Metrics.set "g" 1.0;
  Obs.Metrics.observe "h" 2.0;
  Alcotest.(check int) "nothing registered while disabled" 0
    (List.length (Obs.Metrics.snapshot ()))

let test_metrics_aggregation =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  Obs.Metrics.incr "solves";
  Obs.Metrics.incr ~by:3.0 "solves";
  Obs.Metrics.set "condition" 10.0;
  Obs.Metrics.set "condition" 4.0;
  Obs.Metrics.observe "iters" 2.0;
  Obs.Metrics.observe "iters" 6.0;
  Obs.Metrics.observe "iters" 4.0;
  let field snap name =
    match List.assoc_opt name snap.Obs.Metrics.fields with
    | Some v -> v
    | None -> Alcotest.failf "metric %s has no field %s" snap.Obs.Metrics.name name
  in
  let by_name name =
    match
      List.find_opt (fun s -> String.equal s.Obs.Metrics.name name) (Obs.Metrics.snapshot ())
    with
    | Some s -> s
    | None -> Alcotest.failf "no metric named %s" name
  in
  Alcotest.(check (float 0.0)) "counter accumulates" 4.0 (field (by_name "solves") "value");
  Alcotest.(check (float 0.0)) "gauge keeps latest" 4.0 (field (by_name "condition") "value");
  let h = by_name "iters" in
  Alcotest.(check (float 0.0)) "histogram count" 3.0 (field h "count");
  Alcotest.(check (float 0.0)) "histogram sum" 12.0 (field h "sum");
  Alcotest.(check (float 0.0)) "histogram mean" 4.0 (field h "mean");
  Alcotest.(check (float 0.0)) "histogram min" 2.0 (field h "min");
  Alcotest.(check (float 0.0)) "histogram max" 6.0 (field h "max");
  Alcotest.(check (float 0.0)) "histogram p50" 4.0 (field h "p50")

let test_metrics_percentiles =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  (* 1..100 in shuffled-ish order: percentiles must sort, not trust
     insertion order. Nearest-rank on n=100: p50 -> index 50 -> 51,
     p90 -> index 89 -> 90, p99 -> index 98 -> 99. *)
  for i = 0 to 99 do
    Obs.Metrics.observe "lat" (float_of_int (((i * 37) mod 100) + 1))
  done;
  let snap =
    match
      List.find_opt (fun s -> String.equal s.Obs.Metrics.name "lat") (Obs.Metrics.snapshot ())
    with
    | Some s -> s
    | None -> Alcotest.fail "histogram not registered"
  in
  let field name =
    match List.assoc_opt name snap.Obs.Metrics.fields with
    | Some v -> v
    | None -> Alcotest.failf "no field %s" name
  in
  Alcotest.(check (float 0.0)) "count" 100.0 (field "count");
  Alcotest.(check (float 0.0)) "p50" 51.0 (field "p50");
  Alcotest.(check (float 0.0)) "p90" 90.0 (field "p90");
  Alcotest.(check (float 0.0)) "p99" 99.0 (field "p99");
  Alcotest.(check (float 0.0)) "min still exact" 1.0 (field "min");
  Alcotest.(check (float 0.0)) "max still exact" 100.0 (field "max")

let test_metrics_events_round_trip =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  Obs.Metrics.incr ~by:2.0 "qp.solves";
  Obs.Metrics.observe "qp.iters" 5.0;
  List.iter
    (fun ev ->
      let line = Obs.Export.to_json ev in
      match Obs.Export.of_json line with
      | Ok ev' ->
        Alcotest.(check string) ("round-trip " ^ line) line (Obs.Export.to_json ev')
      | Error msg -> Alcotest.failf "could not parse %s: %s" line msg)
    (Obs.Metrics.events ())

(* ---------------- export ---------------- *)

let nasty = "quote\" backslash\\ newline\n tab\t ctrl\x02 del\x7f utf8 \xc3\xa9"

let test_json_escaping () =
  let ev =
    Obs.Export.Span
      { Obs.Export.id = 1; parent = None; name = nasty; start_s = 0.0; stop_s = 1.0;
        attrs = [ ("s", Obs.Export.Str nasty) ] }
  in
  let line = Obs.Export.to_json ev in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match Obs.Export.of_json line with
  | Ok (Obs.Export.Span s) ->
    Alcotest.(check string) "name survives escaping" nasty s.Obs.Export.name;
    (match List.assoc_opt "s" s.Obs.Export.attrs with
    | Some (Obs.Export.Str v) -> Alcotest.(check string) "attr survives escaping" nasty v
    | _ -> Alcotest.fail "attr s missing or wrong type")
  | Ok _ -> Alcotest.fail "parsed to a metric"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_value_types () =
  let ev =
    Obs.Export.Span
      { Obs.Export.id = 3; parent = Some 2; name = "typed"; start_s = 0.5; stop_s = 0.75;
        attrs =
          [ ("f", Obs.Export.Float 1.25); ("neg", Obs.Export.Float (-0.001));
            ("i", Obs.Export.Int (-7)); ("b", Obs.Export.Bool true);
            ("s", Obs.Export.Str "plain") ] }
  in
  let line = Obs.Export.to_json ev in
  match Obs.Export.of_json line with
  | Ok ev' ->
    Alcotest.(check string) "fixed point" line (Obs.Export.to_json ev');
    let s = span_of ev' in
    Alcotest.(check (option int)) "parent" (Some 2) s.Obs.Export.parent;
    (match List.assoc_opt "i" s.Obs.Export.attrs with
    | Some (Obs.Export.Int -7) -> ()
    | _ -> Alcotest.fail "Int attr did not round-trip as Int");
    (match List.assoc_opt "f" s.Obs.Export.attrs with
    | Some (Obs.Export.Float v) -> Alcotest.(check (float 0.0)) "float value" 1.25 v
    | _ -> Alcotest.fail "Float attr did not round-trip as Float")
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_rejects_malformed () =
  List.iter
    (fun line ->
      match Obs.Export.of_json line with
      | Ok _ -> Alcotest.failf "accepted malformed input: %s" line
      | Error _ -> ())
    [
      ""; "{"; "{\"ev\":\"span\"}"; "not json at all";
      "{\"ev\":\"span\",\"id\":1,\"name\":\"x\",\"start\":0,\"stop\":\"oops\",\"parent\":null,\"attrs\":{}}";
      "{\"ev\":\"mystery\",\"id\":1}";
    ]

let test_read_jsonl =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let source, advance = Obs.Clock.manual () in
      let oc = open_out path in
      Obs.Export.install (Obs.Export.jsonl oc);
      Obs.Metrics.enable ();
      Obs.Clock.with_source source (fun () ->
          Obs.Span.with_ "root" (fun _ ->
              advance 1.0;
              Obs.Span.with_ "leaf" (fun _ -> advance 0.5);
              Obs.Metrics.incr "n"));
      List.iter Obs.Export.emit (Obs.Metrics.events ());
      Obs.Export.uninstall ();
      close_out oc;
      let ic = open_in path in
      let events =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Obs.Export.read_jsonl ic)
      in
      match events with
      | Error msg -> Alcotest.failf "read_jsonl failed: %s" msg
      | Ok events ->
        Alcotest.(check int) "two spans and one metric" 3 (List.length events);
        let root = find_span "root" events and leaf = find_span "leaf" events in
        Alcotest.(check (option int)) "leaf under root" (Some root.Obs.Export.id)
          leaf.Obs.Export.parent;
        (match List.rev events with
        | Obs.Export.Metric m :: _ ->
          Alcotest.(check string) "metric name" "n" m.Obs.Export.metric_name
        | _ -> Alcotest.fail "metrics should follow spans in the stream"))

let test_read_jsonl_reports_line =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"ev\":\"metric\",\"name\":\"ok\",\"kind\":\"counter\",\"fields\":{\"value\":1.0}}\n\n{broken\n";
      close_out oc;
      let ic = open_in path in
      let r = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Obs.Export.read_jsonl ic) in
      match r with
      | Ok _ -> Alcotest.fail "accepted a malformed line"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names line 3 (got %S)" msg)
          true
          (String.length msg >= 6))

(* ---------------- pipeline smoke test ---------------- *)

let ancestors events =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Export.id s) (spans events);
  fun (s : Obs.Export.span) ->
    let rec up acc = function
      | None -> List.rev acc
      | Some id -> (
        match Hashtbl.find_opt by_id id with
        | None -> List.rev acc
        | Some p -> up (p.Obs.Export.name :: acc) p.Obs.Export.parent)
    in
    up [] s.Obs.Export.parent

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.equal (String.sub haystack i ln) needle || go (i + 1))
  in
  go 0

let test_output_top_aggregates =
  with_clean_obs @@ fun () ->
  let source, advance = Obs.Clock.manual () in
  Obs.Clock.with_source source @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Span.with_ "outer" (fun _ ->
      advance 2.0;
      Obs.Span.with_ "inner" (fun _ -> advance 1.0));
  let events = recorded () in
  let render top = capture (fun oc -> Obs.Export.output_top oc ~top events) in
  let full = render 0 in
  check_true "outer listed" (contains full "outer");
  check_true "inner listed" (contains full "inner");
  check_true "two names counted" (contains full "(2 of 2 names)");
  (* outer ran 3s total; inner is charged against its self time, so the
     sort by total puts outer first. top:1 must then drop inner. *)
  let top1 = render 1 in
  check_true "outer survives the cut" (contains top1 "outer");
  check_true "inner cut by top 1" (not (contains top1 "inner"))

let test_json_escape_controls () =
  Alcotest.(check string) "quote, backslash and named escapes" "a\\\"b\\\\c\\n\\r\\t"
    (Obs.Export.json_escape "a\"b\\c\n\r\t");
  Alcotest.(check string) "other control bytes as \\u escapes" "\\u0001\\u001f"
    (Obs.Export.json_escape "\001\031");
  Alcotest.(check string) "plain text and UTF-8 pass through" "caf\xc3\xa9 / ok"
    (Obs.Export.json_escape "caf\xc3\xa9 / ok")

let test_float_json_tokens () =
  Alcotest.(check (list string)) "non-finite values become strings"
    [ "\"nan\""; "\"inf\""; "\"-inf\"" ]
    (List.map Obs.Export.float_json [ Float.nan; Float.infinity; Float.neg_infinity ]);
  Alcotest.(check string) "an integral float keeps a fraction" "5.0" (Obs.Export.float_json 5.0);
  List.iter
    (fun x ->
      Alcotest.(check int64) "finite floats round-trip bit-exactly" (Int64.bits_of_float x)
        (Int64.bits_of_float (float_of_string (Obs.Export.float_json x))))
    [ 0.1; -2.5e-7; 1e300; 4.9e-324; Float.pi; -0.0 ]

let test_json_of_string () =
  (match Obs.Export.json_of_string {| {"a": [1, -2.5e3, "x\"y"], "b": {"t": true, "n": null}} |} with
  | Ok
      (Obs.Export.J_obj
        [
          ("a", Obs.Export.J_arr [ Obs.Export.J_num "1"; Obs.Export.J_num "-2.5e3"; Obs.Export.J_str s ]);
          ("b", Obs.Export.J_obj [ ("t", Obs.Export.J_bool true); ("n", Obs.Export.J_null) ]);
        ]) ->
    Alcotest.(check string) "escaped string decoded" "x\"y" s
  | Ok _ -> Alcotest.fail "parsed to the wrong shape"
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  List.iter
    (fun bad ->
      check_true (Printf.sprintf "%S is rejected" bad)
        (Result.is_error (Obs.Export.json_of_string bad)))
    [ "{\"a\": 1} trailing"; "[1, 2"; "{\"a\" 1}"; ""; "nul" ]

(* A fixed stream: root "run" (0-3 s) with two "step" children (0-1 s and
   1-1.5 s), plus an orphan whose parent was never emitted. *)
let tree_events =
  let span id parent name start_s stop_s =
    Obs.Export.Span { Obs.Export.id; parent; name; start_s; stop_s; attrs = [] }
  in
  [
    span 2 (Some 1) "step" 0.0 1.0;
    span 3 (Some 1) "step" 1.0 1.5;
    span 1 None "run" 0.0 3.0;
    span 9 (Some 42) "orphan" 5.0 5.25;
    Obs.Export.Metric
      { Obs.Export.metric_name = "qp.solves"; kind = "counter"; fields = [ ("value", 2.0) ] };
  ]

let test_aggregate_span_rows () =
  match Obs.Export.aggregate_span_rows tree_events with
  | [ ("run", 1, run_total, run_self); ("step", 2, step_total, step_self); ("orphan", 1, o, _) ] ->
    check_close "run total" 3.0 run_total;
    check_close "run self excludes its children" 1.5 run_self;
    check_close "step total over both calls" 1.5 step_total;
    check_close "leaf self is its total" 1.5 step_self;
    check_close "orphan total" 0.25 o
  | rows ->
    Alcotest.failf "unexpected rows: %s"
      (String.concat "; " (List.map (fun (n, c, _, _) -> Printf.sprintf "%s x%d" n c) rows))

let test_output_summary () =
  let text = capture (fun oc -> Obs.Export.output_summary oc tree_events) in
  check_true "tree header" (contains text "span tree (count, total, self):");
  check_true "siblings aggregated into one row" (contains text "step");
  check_true "two step calls counted" (contains text "2x");
  check_true "the orphan is promoted to a root" (contains text "\n  orphan");
  check_true "children indented under their root" (contains text "\n    step");
  check_true "metrics section follows" (contains text "metrics:");
  check_true "the counter is listed" (contains text "qp.solves")

let test_output_metrics () =
  let metrics =
    [
      { Obs.Export.metric_name = "z.gauge"; kind = "gauge"; fields = [ ("value", 0.5) ] };
      {
        Obs.Export.metric_name = "a.hist";
        kind = "histogram";
        fields = [ ("count", 4.0); ("mean", 2.5); ("max", 4.0) ];
      };
    ]
  in
  let text = capture (fun oc -> Obs.Export.output_metrics oc metrics) in
  check_true "gauge shows its value" (contains text "value=0.5");
  check_true "histogram shows its present fields" (contains text "count=4 mean=2.5 max=4");
  check_true "histogram skips absent fields" (not (contains text "p99"));
  let index_of needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then None
      else if String.equal (String.sub text i n) needle then Some i
      else go (i + 1)
    in
    go 0
  in
  (match (index_of "a.hist", index_of "z.gauge") with
  | Some i, Some j -> check_true "sorted by name" (i < j)
  | _ -> Alcotest.fail "a metric is missing");
  Alcotest.(check string) "no metrics, no section" ""
    (capture (fun oc -> Obs.Export.output_metrics oc []))

let test_pipeline_span_hierarchy =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Metrics.enable ();
  let times = Array.init 6 (fun i -> 30.0 *. float_of_int i) in
  let config =
    { (Deconv.Pipeline.default_config ~times) with
      Deconv.Pipeline.n_cells_kernel = 300;
      n_cells_data = 300;
      n_phi = 41;
      num_knots = 8;
      selection = `Fixed 1e-4;
      seed = 11;
    }
  in
  let profile phi = 1.0 +. (0.5 *. Float.sin (2.0 *. Float.pi *. phi)) in
  let _run = Deconv.Pipeline.run config ~profile in
  let events = recorded () in
  let up = ancestors events in
  let check_under span_name ancestor_name =
    let s = find_span span_name events in
    let anc = up s in
    Alcotest.(check bool)
      (Printf.sprintf "%s under %s (ancestors: %s)" span_name ancestor_name
         (String.concat " < " anc))
      true
      (List.mem ancestor_name anc)
  in
  let root = find_span "pipeline.run" events in
  Alcotest.(check (option int)) "pipeline.run is the root" None root.Obs.Export.parent;
  check_under "kernel.estimate" "pipeline.kernel";
  check_under "population.simulate" "kernel.estimate";
  check_under "qp.solve" "pipeline.solve";
  check_under "qp.solve" "pipeline.run";
  check_under "solver.constrained" "solver.solve_robust";
  check_under "solver.attempt" "pipeline.solve";
  (* metrics flowed alongside the spans *)
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "cells counter registered" true
    (List.exists
       (fun s -> String.equal s.Obs.Metrics.name "population.cells_simulated")
       snap);
  Alcotest.(check bool) "qp counter registered" true
    (List.exists (fun s -> String.equal s.Obs.Metrics.name "qp.solves") snap)

let test_pipeline_lambda_spans =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  let times = Array.init 6 (fun i -> 30.0 *. float_of_int i) in
  let config =
    { (Deconv.Pipeline.default_config ~times) with
      Deconv.Pipeline.n_cells_kernel = 300;
      n_cells_data = 300;
      n_phi = 41;
      num_knots = 8;
      selection = `Gcv;
      seed = 12;
    }
  in
  let profile phi = 1.0 +. (0.5 *. Float.sin (2.0 *. Float.pi *. phi)) in
  let _run = Deconv.Pipeline.run config ~profile in
  let events = recorded () in
  let up = ancestors events in
  let candidate = find_span "lambda.candidate" events in
  Alcotest.(check bool) "lambda.candidate under lambda.select" true
    (List.mem "lambda.select" (up candidate));
  let select = find_span "lambda.select" events in
  Alcotest.(check bool) "lambda.select under pipeline.lambda" true
    (List.mem "pipeline.lambda" (up select));
  Alcotest.(check bool) "several candidates traced" true
    (List.length
       (List.filter
          (fun s -> String.equal s.Obs.Export.name "lambda.candidate")
          (spans events))
    > 1)

(* ---------------- concurrency ---------------- *)

(* The metric registries and the export sink are mutex-guarded; concurrent
   emission from pool workers must neither drop updates nor tear events,
   and worker-domain root spans carry a "domain" attribute so traces from
   a parallel section stay attributable. Concurrency comes from the pool
   API — raw Domain.spawn is off limits outside lib/parallel (rule R8). *)
let test_concurrent_emission =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Metrics.enable ();
  let n = 64 in
  let pool = Parallel.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Parallel.Pool.parallel_for pool ~chunk:1 ~n (fun ~lo ~hi:_ ->
          Obs.Span.with_ "conc.task" (fun sp ->
              Obs.Span.set_int sp "index" lo;
              Obs.Metrics.incr "conc.tasks";
              Obs.Metrics.observe "conc.index" (float_of_int lo))));
  let task_spans =
    List.filter (fun s -> String.equal s.Obs.Export.name "conc.task") (spans (recorded ()))
  in
  Alcotest.(check int) "one span per task, none dropped" n (List.length task_spans);
  let ids = List.sort_uniq compare (List.map (fun s -> s.Obs.Export.id) task_spans) in
  Alcotest.(check int) "span ids unique across domains" n (List.length ids);
  List.iter
    (fun s ->
      Alcotest.(check (option int)) "task spans are roots" None s.Obs.Export.parent;
      match List.assoc_opt "domain" s.Obs.Export.attrs with
      | Some (Obs.Export.Int d) -> check_true "domain id non-negative" (d >= 0)
      | Some _ -> Alcotest.fail "domain attribute must be an Int"
      | None -> () (* chunks claimed by the submitting (main) domain are untagged *))
    task_spans;
  let field snap name =
    match List.assoc_opt name snap.Obs.Metrics.fields with
    | Some v -> v
    | None -> Alcotest.failf "metric %s has no field %s" snap.Obs.Metrics.name name
  in
  let by_name name =
    match
      List.find_opt (fun s -> String.equal s.Obs.Metrics.name name) (Obs.Metrics.snapshot ())
    with
    | Some s -> s
    | None -> Alcotest.failf "no metric named %s" name
  in
  Alcotest.(check (float 0.0)) "no increment lost" (float_of_int n)
    (field (by_name "conc.tasks") "value");
  Alcotest.(check (float 0.0)) "no observation lost" (float_of_int n)
    (field (by_name "conc.index") "count");
  Alcotest.(check (float 0.0)) "observations intact"
    (float_of_int (n * (n - 1) / 2))
    (field (by_name "conc.index") "sum")

(* ---------------- telemetry: resource sampler ---------------- *)

let test_ticker_intervals () =
  let t = Obs.Resource.ticker ~period:1.0 ~now:0.0 in
  check_true "not due before the first deadline" (not (Obs.Resource.due t ~now:0.5));
  check_true "due at the deadline" (Obs.Resource.due t ~now:1.0);
  check_true "not due twice for one deadline" (not (Obs.Resource.due t ~now:1.0));
  check_true "due after the next period" (Obs.Resource.due t ~now:2.25);
  (* A stall over several periods yields one catch-up tick, not a burst. *)
  check_true "stall: one catch-up tick" (Obs.Resource.due t ~now:7.9);
  check_true "stall: no burst" (not (Obs.Resource.due t ~now:7.95));
  check_true "deadline re-anchored past the stall" (Obs.Resource.due t ~now:8.1)

let test_ticker_rejects_bad_period () =
  List.iter
    (fun period ->
      match Obs.Resource.ticker ~period ~now:0.0 with
      | _ -> Alcotest.failf "accepted period %f" period
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_resource_sample_round_trip =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  let source, advance = Obs.Clock.manual ~start:5.0 () in
  Obs.Clock.with_source source (fun () ->
      Obs.Resource.sample ();
      advance 2.0;
      Obs.Resource.sample ());
  Obs.Export.uninstall ();
  let samples =
    List.filter_map (function Obs.Export.Sample s -> Some s | _ -> None) (recorded ())
  in
  (match samples with
  | [ a; b ] ->
    Alcotest.(check string) "kind" "resource" a.Obs.Export.s_kind;
    Alcotest.(check (float 0.0)) "first sample at the mock clock" 5.0 a.Obs.Export.t_s;
    Alcotest.(check (float 0.0)) "second sample after advance" 7.0 b.Obs.Export.t_s;
    List.iter
      (fun field ->
        check_true (field ^ " present") (List.mem_assoc field a.Obs.Export.values))
      [ "minor_words"; "major_words"; "heap_words"; "minor_collections" ]
  | ss -> Alcotest.failf "expected two samples, got %d" (List.length ss));
  (* JSONL fixed point: to_json . of_json . to_json = to_json. *)
  List.iter
    (fun s ->
      let line = Obs.Export.to_json (Obs.Export.Sample s) in
      match Obs.Export.of_json line with
      | Ok ev' -> Alcotest.(check string) "fixed point" line (Obs.Export.to_json ev')
      | Error msg -> Alcotest.failf "could not parse %s: %s" line msg)
    samples

let test_resource_sample_disabled_is_noop =
  with_clean_obs @@ fun () ->
  (* No sink installed: must not raise, must not emit. *)
  Obs.Resource.sample ();
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Export.uninstall ();
  Alcotest.(check int) "nothing emitted" 0 (List.length (recorded ()))

(* ---------------- telemetry: progress ---------------- *)

let with_manual_clock ?(start = 0.0) f =
  let source, advance = Obs.Clock.manual ~start () in
  Obs.Clock.with_source source (fun () -> f advance)

let test_progress_zero_done =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~total:10 () in
  advance 3.0;
  let s = Obs.Progress.snapshot p in
  Alcotest.(check int) "done" 0 s.Obs.Progress.s_done;
  Alcotest.(check (float 0.0)) "rate is zero before any completion" 0.0
    s.Obs.Progress.s_rate;
  check_true "eta unknown" (Float.is_nan s.Obs.Progress.s_eta_s);
  check_true "renders the unknown eta" (String.length (Obs.Progress.render s) > 0)

let test_progress_all_failed =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~total:3 () in
  advance 1.0;
  Obs.Progress.record_into (Some p) ~cls:"non_finite" ~ok:false ();
  Obs.Progress.record_into (Some p) ~cls:"non_finite" ~ok:false ();
  Obs.Progress.record_into (Some p) ~cls:"qp_stalled" ~ok:false ();
  let s = Obs.Progress.snapshot p in
  Alcotest.(check int) "all done" 3 s.Obs.Progress.s_done;
  Alcotest.(check int) "none ok" 0 s.Obs.Progress.s_ok;
  Alcotest.(check int) "all failed" 3 s.Obs.Progress.s_failed;
  Alcotest.(check (list (pair string int))) "classes sorted and tallied"
    [ ("non_finite", 2); ("qp_stalled", 1) ]
    s.Obs.Progress.s_classes;
  Alcotest.(check (float 0.0)) "eta is zero once everything completed" 0.0
    s.Obs.Progress.s_eta_s;
  let line = Obs.Progress.render s in
  check_true "render names the failure class" (contains line "non_finite:2")

let test_progress_window_rate =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~window_s:10.0 ~total:8 () in
  advance 1.0;
  Obs.Progress.record_into (Some p) ~ok:true ();
  advance 1.0;
  Obs.Progress.record_into (Some p) ~ok:true ();
  advance 1.0;
  Obs.Progress.record_into (Some p) ~ok:true ();
  (* Three completions inside the window; elapsed 3 s < window 10 s, so
     the rate is count over elapsed. *)
  let s = Obs.Progress.snapshot p in
  Alcotest.(check (float 1e-9)) "windowed rate" 1.0 s.Obs.Progress.s_rate;
  Alcotest.(check (float 1e-9)) "eta = remaining / rate" 5.0 s.Obs.Progress.s_eta_s

let test_progress_window_fallback =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  (* Completions slower than the window: the window is empty at snapshot
     time, so the rate degrades to the overall average instead of 0. *)
  let p = Obs.Progress.create ~window_s:0.5 ~total:4 () in
  advance 2.0;
  Obs.Progress.record_into (Some p) ~ok:true ();
  advance 2.0;
  Obs.Progress.record_into (Some p) ~ok:true ();
  advance 1.0;
  let s = Obs.Progress.snapshot p in
  Alcotest.(check (float 1e-9)) "overall-average fallback" 0.4 s.Obs.Progress.s_rate;
  Alcotest.(check (float 1e-9)) "eta from the fallback rate" 5.0 s.Obs.Progress.s_eta_s

let test_progress_replayed =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~total:5 () in
  Obs.Progress.record_replayed p 3;
  advance 1.0;
  let s = Obs.Progress.snapshot p in
  Alcotest.(check int) "replays count as done" 3 s.Obs.Progress.s_done;
  Alcotest.(check int) "replays count as ok" 3 s.Obs.Progress.s_ok;
  Alcotest.(check int) "replays are tracked apart" 3 s.Obs.Progress.s_replayed;
  (* Replays bypass the sliding window but still feed the overall
     average (the documented degradation, visible here as 3/1s). *)
  Alcotest.(check (float 1e-9)) "window ignores replays" 3.0 s.Obs.Progress.s_rate

let test_progress_observer_rate_limit =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~total:100 () in
  let calls = ref 0 in
  Obs.Progress.observe ~min_interval_s:1.0 p (fun _ -> incr calls);
  Obs.Progress.record_into (Some p) ~ok:true ();
  Obs.Progress.record_into (Some p) ~ok:true ();
  Obs.Progress.record_into (Some p) ~ok:true ();
  Alcotest.(check int) "same-instant completions coalesce" 1 !calls;
  advance 1.5;
  Obs.Progress.record_into (Some p) ~ok:true ();
  Alcotest.(check int) "interval elapsed: fires again" 2 !calls;
  Obs.Progress.finish p;
  Alcotest.(check int) "finish always fires" 3 !calls

let test_progress_record_into_none () =
  (* The disabled path must cost a branch and nothing else. *)
  Obs.Progress.record_into None ~ok:true ();
  Obs.Progress.record_into None ~cls:"non_finite" ~ok:false ()

let test_progress_json =
  with_clean_obs @@ fun () ->
  with_manual_clock @@ fun advance ->
  let p = Obs.Progress.create ~total:2 () in
  advance 1.0;
  Obs.Progress.record_into (Some p) ~cls:"qp_stalled" ~ok:false ();
  let json = Obs.Progress.to_json (Obs.Progress.snapshot p) in
  List.iter
    (fun needle -> check_true ("json has " ^ needle) (contains json needle))
    [ "\"total\":2"; "\"done\":1"; "\"failed\":1"; "\"qp_stalled\":1"; "\"elapsed_s\":1" ]

(* ---------------- telemetry: utilization ---------------- *)

let chunk_sample ~domain ~lo ~hi ~start ~stop =
  Obs.Export.Sample
    {
      Obs.Export.s_kind = "chunk";
      t_s = stop;
      values =
        [
          ("domain", float_of_int domain); ("lo", float_of_int lo);
          ("hi", float_of_int hi); ("start", start); ("stop", stop);
        ];
    }

let test_utilization_synthetic () =
  (* Two domains over a 2 s fan-out: domain 0 busy 1.5 s in two chunks,
     domain 1 busy 2.0 s in one chunk. *)
  let events =
    [
      chunk_sample ~domain:0 ~lo:0 ~hi:4 ~start:0.0 ~stop:1.0;
      chunk_sample ~domain:0 ~lo:4 ~hi:8 ~start:1.2 ~stop:1.7;
      chunk_sample ~domain:1 ~lo:8 ~hi:16 ~start:0.0 ~stop:2.0;
    ]
  in
  match Obs.Utilization.of_events events with
  | None -> Alcotest.fail "expected a report"
  | Some r ->
    Alcotest.(check int) "chunk count" 3 r.Obs.Utilization.chunk_count;
    Alcotest.(check (float 1e-9)) "span" 2.0 r.Obs.Utilization.span_s;
    (match r.Obs.Utilization.domains with
    | [ d0; d1 ] ->
      Alcotest.(check int) "sorted by domain id" 0 d0.Obs.Utilization.domain;
      Alcotest.(check int) "items = sum hi-lo" 8 d0.Obs.Utilization.items;
      Alcotest.(check (float 1e-9)) "domain 0 busy" 1.5 d0.Obs.Utilization.busy_s;
      Alcotest.(check (float 1e-9)) "domain 0 fraction" 0.75
        d0.Obs.Utilization.busy_fraction;
      Alcotest.(check (float 1e-9)) "domain 1 fraction" 1.0
        d1.Obs.Utilization.busy_fraction;
      List.iter
        (fun (d : Obs.Utilization.domain_stat) ->
          check_true "fraction in (0,1]"
            (d.Obs.Utilization.busy_fraction > 0.0
            && d.Obs.Utilization.busy_fraction <= 1.0))
        r.Obs.Utilization.domains
    | ds -> Alcotest.failf "expected two domains, got %d" (List.length ds));
    (* Chunk walls: 1.0, 0.5, 2.0 -> mean 7/6, max 2.0. *)
    Alcotest.(check (float 1e-9)) "imbalance = max/mean" (2.0 /. (3.5 /. 3.0))
      r.Obs.Utilization.imbalance;
    check_true "imbalance finite" (Float.is_finite r.Obs.Utilization.imbalance)

let test_chunk_decoding () =
  (match chunk_sample ~domain:1 ~lo:8 ~hi:16 ~start:0.5 ~stop:2.0 with
  | Obs.Export.Sample s -> (
    match Obs.Utilization.chunk_of_sample s with
    | Some c ->
      Alcotest.(check (list int)) "domain, lo, hi" [ 1; 8; 16 ]
        [ c.Obs.Utilization.domain; c.Obs.Utilization.lo; c.Obs.Utilization.hi ];
      check_close ~tol:0.0 "start" 0.5 c.Obs.Utilization.start_s;
      check_close ~tol:0.0 "stop" 2.0 c.Obs.Utilization.stop_s
    | None -> Alcotest.fail "a well-formed chunk sample did not decode")
  | _ -> Alcotest.fail "fixture is not a sample");
  let sample s_kind values = { Obs.Export.s_kind; t_s = 1.0; values } in
  check_true "a resource sample is not a chunk"
    (Option.is_none
       (Obs.Utilization.chunk_of_sample
          (sample "resource" [ ("domain", 0.0); ("lo", 0.0); ("hi", 1.0); ("start", 0.0); ("stop", 1.0) ])));
  check_true "a missing field is malformed"
    (Option.is_none
       (Obs.Utilization.chunk_of_sample (sample "chunk" [ ("domain", 0.0); ("lo", 0.0) ])));
  check_true "a non-finite field is malformed"
    (Option.is_none
       (Obs.Utilization.chunk_of_sample
          (sample "chunk" [ ("domain", 0.0); ("lo", 0.0); ("hi", 1.0); ("start", Float.nan); ("stop", 1.0) ])));
  let events =
    [
      chunk_sample ~domain:0 ~lo:0 ~hi:4 ~start:0.0 ~stop:1.0;
      Obs.Export.Sample (sample "chunk" []);
      Obs.Export.Metric { Obs.Export.metric_name = "m"; kind = "gauge"; fields = [] };
      chunk_sample ~domain:1 ~lo:4 ~hi:8 ~start:0.0 ~stop:1.0;
    ]
  in
  Alcotest.(check (list int)) "only well-formed chunks, in stream order" [ 0; 1 ]
    (List.map (fun (c : Obs.Utilization.chunk) -> c.domain) (Obs.Utilization.chunks_of_events events))

let test_utilization_edges () =
  check_true "no chunks -> no report" (Option.is_none (Obs.Utilization.of_events []));
  (* Malformed and non-chunk samples are ignored, not fatal. *)
  let noise =
    [
      Obs.Export.Sample
        { Obs.Export.s_kind = "resource"; t_s = 1.0; values = [ ("heap_words", 1e6) ] };
      Obs.Export.Sample { Obs.Export.s_kind = "chunk"; t_s = 1.0; values = [] };
    ]
  in
  check_true "noise alone -> no report" (Option.is_none (Obs.Utilization.of_events noise));
  (* A zero-width span (one instantaneous chunk) pins the fraction at 1. *)
  match
    Obs.Utilization.of_events [ chunk_sample ~domain:2 ~lo:0 ~hi:1 ~start:5.0 ~stop:5.0 ]
  with
  | Some { Obs.Utilization.domains = [ d ]; imbalance; _ } ->
    Alcotest.(check (float 0.0)) "zero-span fraction" 1.0 d.Obs.Utilization.busy_fraction;
    Alcotest.(check (float 0.0)) "zero-span imbalance" 1.0 imbalance
  | _ -> Alcotest.fail "expected a single-domain report"

(* ---------------- telemetry: chrome export ---------------- *)

let chrome_string events =
  let path = Filename.temp_file "obs_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Chrome.output oc events;
      close_out oc;
      In_channel.with_open_text path In_channel.input_all)

let test_chrome_export_golden () =
  let events =
    [
      Obs.Export.Span
        { Obs.Export.id = 1; parent = None; name = "batch"; start_s = 10.0;
          stop_s = 12.0; attrs = [] };
      Obs.Export.Span
        { Obs.Export.id = 2; parent = Some 1; name = "solve"; start_s = 10.5;
          stop_s = 11.0; attrs = [ ("domain", Obs.Export.Int 3) ] };
      chunk_sample ~domain:3 ~lo:0 ~hi:32 ~start:10.5 ~stop:11.0;
      Obs.Export.Sample
        { Obs.Export.s_kind = "resource"; t_s = 11.0;
          values = [ ("heap_words", 4096.0) ] };
      Obs.Export.Point
        { Obs.Export.series = "qp.iteration"; span_id = Some 2; iter = 1;
          values = [ ("kkt_residual", 0.5) ] };
      Obs.Export.Metric
        { Obs.Export.metric_name = "skipped"; kind = "counter";
          fields = [ ("value", 1.0) ] };
    ]
  in
  let doc = chrome_string events in
  check_true "document shape" (contains doc "{\"traceEvents\":[");
  (* The root span starts at the stream's earliest timestamp: ts 0. *)
  check_true "root span is a complete event at ts 0"
    (contains doc
       "{\"name\":\"batch\",\"ph\":\"X\",\"ts\":0.0,\"dur\":2000000.0,\"pid\":1,\"tid\":0");
  (* The child span lands on its domain's lane, 0.5 s = 500000 us in. *)
  check_true "child span on the domain lane"
    (contains doc
       "{\"name\":\"solve\",\"ph\":\"X\",\"ts\":500000.0,\"dur\":500000.0,\"pid\":1,\"tid\":3");
  check_true "chunk renders as a complete event on its domain tid"
    (contains doc
       "{\"name\":\"chunk [0,32)\",\"ph\":\"X\",\"ts\":500000.0,\"dur\":500000.0,\"pid\":1,\"tid\":3");
  check_true "resource field becomes a counter track"
    (contains doc
       "{\"name\":\"resource.heap_words\",\"ph\":\"C\",\"ts\":1000000.0,\"pid\":1,\"args\":{\"heap_words\":4096.0}");
  check_true "point becomes an instant at its owning span"
    (contains doc
       "{\"name\":\"qp.iteration #1\",\"ph\":\"i\",\"ts\":500000.0,\"pid\":1,\"tid\":3,\"s\":\"t\"");
  check_true "metrics are skipped" (not (contains doc "skipped"))

let test_chrome_export_empty () =
  Alcotest.(check string) "empty stream is a valid document" "{\"traceEvents\":[\n\n]}\n"
    (chrome_string [])

let tests =
  [
    ( "obs-clock",
      [
        case "manual source" test_manual_clock;
        case "monotonic clamp" test_clock_monotonic_clamp;
        case "with_source restores" test_with_source_restores;
      ] );
    ( "obs-span",
      [
        case "nesting, order and timing" test_span_nesting;
        case "emits on exception" test_span_emits_on_exception;
        case "disabled is a no-op" test_span_disabled_is_noop;
        case "typed setters" test_span_typed_setters;
      ] );
    ( "obs-metrics",
      [
        case "disabled is a no-op" test_metrics_disabled_noop;
        case "counter, gauge, histogram" test_metrics_aggregation;
        case "exact percentiles" test_metrics_percentiles;
        case "events round-trip" test_metrics_events_round_trip;
      ] );
    ( "obs-export",
      [
        case "string escaping" test_json_escaping;
        case "value types round-trip" test_json_value_types;
        case "rejects malformed lines" test_json_rejects_malformed;
        case "jsonl write and read back" test_read_jsonl;
        case "malformed line reported" test_read_jsonl_reports_line;
        case "top table aggregates by name" test_output_top_aggregates;
        case "json_escape control bytes" test_json_escape_controls;
        case "float tokens" test_float_json_tokens;
        case "generic json parser" test_json_of_string;
        case "span rows: calls, total, self" test_aggregate_span_rows;
        case "summary tree and orphans" test_output_summary;
        case "metrics section" test_output_metrics;
      ] );
    ( "obs-pipeline",
      [
        case "span hierarchy end to end" test_pipeline_span_hierarchy;
        case "lambda selection spans" test_pipeline_lambda_spans;
      ] );
    ("obs-concurrency", [ case "concurrent emission" test_concurrent_emission ]);
    ( "telemetry-sampler",
      [
        case "ticker interval logic" test_ticker_intervals;
        case "ticker rejects bad periods" test_ticker_rejects_bad_period;
        case "resource sample jsonl round-trip" test_resource_sample_round_trip;
        case "disabled sample is a no-op" test_resource_sample_disabled_is_noop;
      ] );
    ( "telemetry-progress",
      [
        case "zero done: unknown eta" test_progress_zero_done;
        case "all failed: classes tallied" test_progress_all_failed;
        case "sliding-window rate" test_progress_window_rate;
        case "slow completions fall back" test_progress_window_fallback;
        case "checkpoint replays tracked apart" test_progress_replayed;
        case "observer rate limit" test_progress_observer_rate_limit;
        case "record_into None is a no-op" test_progress_record_into_none;
        case "snapshot json" test_progress_json;
      ] );
    ( "telemetry-utilization",
      [
        case "synthetic chunk timings" test_utilization_synthetic;
        case "edge cases" test_utilization_edges;
        case "chunk decoding" test_chunk_decoding;
      ] );
    ( "telemetry-chrome",
      [
        case "golden export" test_chrome_export_golden;
        case "empty stream" test_chrome_export_empty;
      ] );
  ]
