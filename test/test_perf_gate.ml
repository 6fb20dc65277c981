(* Performance receipts: the noise-aware wall-time gate of [trace diff]
   (tolerance band, noise and delta floors, unmatched spans), and
   per-iteration convergence telemetry from the QP and Richardson-Lucy
   solvers (one trace point per iteration, attached to its solver span). *)

open Numerics
open Testutil

(* ---------------- wall-time gate ---------------- *)

(* A trace holding one root span per [(name, seconds)] pair. *)
let trace spans =
  List.mapi
    (fun i (name, seconds) ->
      Obs.Export.Span
        { Obs.Export.id = i + 1; parent = None; name; start_s = 0.0; stop_s = seconds; attrs = [] })
    spans

let gate ?tolerance a b = Obs.Tracediff.diff ?tolerance (trace a) (trace b)

let verdict_label = function
  | Obs.Tracediff.Regression -> "regression"
  | Obs.Tracediff.Improvement -> "improvement"
  | Obs.Tracediff.Unchanged -> "unchanged"
  | Obs.Tracediff.Skipped why -> "skipped: " ^ why

let only_row (d : Obs.Tracediff.t) =
  match d.time with
  | [ row ] -> row
  | rows -> Alcotest.failf "expected exactly one time row, got %d" (List.length rows)

let check_verdict msg expected (row : Obs.Tracediff.time_row) =
  Alcotest.(check string) msg expected (verdict_label row.verdict)

let test_gate_flags_2x_regression () =
  let d = gate [ ("solve", 0.10) ] [ ("solve", 0.20) ] in
  let row = only_row d in
  check_verdict "2x slowdown is a regression" "regression" row;
  check_close ~tol:1e-9 "ratio" 2.0 row.ratio;
  check_true "has_regression" (Obs.Tracediff.has_regression d)

let test_gate_passes_jitter () =
  (* 10% jitter is inside the default 30% tolerance, both directions. *)
  List.iter
    (fun latest ->
      let d = gate [ ("solve", 0.10) ] [ ("solve", latest) ] in
      check_verdict
        (Printf.sprintf "%.0f ms vs 100 ms is within tolerance" (latest *. 1e3))
        "unchanged" (only_row d);
      check_true "no regression" (not (Obs.Tracediff.has_regression d)))
    [ 0.11; 0.09 ]

let test_gate_flags_improvement () =
  let d = gate [ ("solve", 0.20) ] [ ("solve", 0.10) ] in
  check_verdict "2x speedup is an improvement" "improvement" (only_row d);
  check_true "an improvement is not a regression" (not (Obs.Tracediff.has_regression d))

let test_gate_delta_floor () =
  (* A trace total is one wall-clock sample: a 3x ratio on 2 ms of drift
     is inside single-sample noise, while 6 ms of drift is gated. *)
  check_verdict "2 ms drift is ok at any ratio" "unchanged"
    (only_row (gate [ ("solve", 0.001) ] [ ("solve", 0.003) ]));
  check_verdict "6 ms drift clears the floor" "regression"
    (only_row (gate [ ("solve", 0.001) ] [ ("solve", 0.007) ]))

let test_gate_tolerance_sets_band () =
  check_verdict "2.5x is inside a 200% band" "unchanged"
    (only_row (gate ~tolerance:2.0 [ ("solve", 0.10) ] [ ("solve", 0.25) ]));
  check_verdict "20% is outside a 10% band" "regression"
    (only_row (gate ~tolerance:0.1 [ ("solve", 0.10) ] [ ("solve", 0.12) ]));
  check_verdict "a zero band gates any slowdown past the delta floor" "regression"
    (only_row (gate ~tolerance:0.0 [ ("solve", 0.100) ] [ ("solve", 0.106) ]));
  check_verdict "a zero band gates any speedup past the delta floor" "improvement"
    (only_row (gate ~tolerance:0.0 [ ("solve", 0.106) ] [ ("solve", 0.100) ]))

let test_gate_skips_unmatched_spans () =
  let d =
    gate
      [ ("kept", 0.10); ("gone", 0.10); ("zero", 0.0) ]
      [ ("kept", 0.10); ("zero", 0.01); ("new", 0.10) ]
  in
  let row name =
    match List.find_opt (fun (r : Obs.Tracediff.time_row) -> String.equal r.span name) d.time with
    | Some r -> r
    | None -> Alcotest.failf "no time row for %s" name
  in
  Alcotest.(check int) "one row per span name" 4 (List.length d.time);
  check_verdict "matched span" "unchanged" (row "kept");
  check_verdict "span only in A" "skipped: absent from B" (row "gone");
  check_verdict "span only in B" "skipped: absent from A" (row "new");
  check_verdict "zero baseline" "skipped: zero baseline" (row "zero");
  check_true "absent side has no total" (Float.is_nan (row "gone").total_b);
  check_true "absent side has no ratio" (Float.is_nan (row "new").ratio);
  (match List.rev d.time with
  | last :: _ -> Alcotest.(check string) "B-only spans come after A's" "new" last.span
  | [] -> Alcotest.fail "no time rows");
  check_true "skips are not regressions" (not (Obs.Tracediff.has_regression d))

let test_gate_sums_repeated_spans () =
  let d = gate [ ("qp.solve", 0.05); ("qp.solve", 0.05) ] [ ("qp.solve", 0.25) ] in
  let row = only_row d in
  Alcotest.(check int) "calls in A" 2 row.calls_a;
  Alcotest.(check int) "calls in B" 1 row.calls_b;
  check_close ~tol:1e-12 "A total sums its calls" 0.10 row.total_a;
  check_close ~tol:1e-9 "ratio of totals" 2.5 row.ratio;
  check_verdict "gated on the totals" "regression" row

(* ---------------- convergence telemetry ---------------- *)

let with_clean_obs f () =
  Obs.Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Export.uninstall ();
      Obs.Span.reset ();
      Obs.Clock.set_source Obs.Clock.wall)
    f

let points_of events : Obs.Export.point list =
  List.filter_map (function Obs.Export.Point p -> Some p | _ -> None) events

let test_qp_emits_one_point_per_iteration =
  with_clean_obs @@ fun () ->
  let source, advance = Obs.Clock.manual () in
  Obs.Clock.with_source source @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  (* min (x+1)^2 + (y-2)^2 s.t. x >= 0: the unconstrained minimizer
     violates the row, so the solve takes a second pass to add it. Advance the mock clock per event so span
     timings stay deterministic. *)
  advance 1.0;
  let spd_2 = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| 2.0; -4.0 |]; ineq = Some (a, [| 0.0 |]) }
  in
  let events = recorded () in
  let points =
    List.filter (fun p -> String.equal p.Obs.Export.series "qp.iteration") (points_of events)
  in
  Alcotest.(check int) "one point per pass"
    solution.Optimize.Qp.iterations (List.length points);
  (* Iteration indices are 1..n in emission order. *)
  List.iteri
    (fun i p -> Alcotest.(check int) "iteration index" (i + 1) p.Obs.Export.iter)
    points;
  let qp_span =
    List.find_map
      (function
        | Obs.Export.Span s when String.equal s.Obs.Export.name "qp.solve" -> Some s
        | _ -> None)
      events
  in
  (match qp_span with
  | None -> Alcotest.fail "no qp.solve span recorded"
  | Some s ->
    List.iter
      (fun p ->
        Alcotest.(check (option int)) "point attached to the qp.solve span"
          (Some s.Obs.Export.id) p.Obs.Export.span_id)
      points;
    (* The span's iterations attribute agrees with the point count. *)
    match List.assoc_opt "iterations" s.Obs.Export.attrs with
    | Some (Obs.Export.Int n) -> Alcotest.(check int) "span attr matches" n (List.length points)
    | _ -> Alcotest.fail "qp.solve span lacks an iterations attribute");
  Alcotest.(check int) "two passes: the first scan, then the add" 2 (List.length points);
  List.iter
    (fun (p : Obs.Export.point) ->
      check_true "max_violation present" (List.mem_assoc "max_violation" p.Obs.Export.values);
      check_true "active present" (List.mem_assoc "active" p.Obs.Export.values))
    points;
  check_true "exact KKT residual" (solution.Optimize.Qp.kkt_residual < 1e-12);
  (* The violation curve starts at the unconstrained minimizer's violation
     of x >= 0 (x = -1, scale max(1, |b|, |Ax|) = 1) and ends feasible,
     with the row active. *)
  match points with
  | [ first; last ] ->
    check_close ~tol:1e-12 "first scan's violation" 1.0
      (List.assoc "max_violation" first.Obs.Export.values);
    check_close ~tol:0.0 "no active row at the first scan" 0.0
      (List.assoc "active" first.Obs.Export.values);
    check_true "final violation within tolerance"
      (List.assoc "max_violation" last.Obs.Export.values <= 1e-9);
    check_close ~tol:0.0 "one active row at the end" 1.0
      (List.assoc "active" last.Obs.Export.values)
  | _ -> Alcotest.fail "expected two points"

let test_qp_direct_solve_emits_single_point =
  with_clean_obs @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  let spd_2 = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| -2.0; -4.0 |]; ineq = None }
  in
  let points =
    List.filter
      (fun p -> String.equal p.Obs.Export.series "qp.iteration")
      (points_of (recorded ()))
  in
  Alcotest.(check int) "direct solve: one iteration, one point"
    solution.Optimize.Qp.iterations (List.length points)

let test_point_round_trips_jsonl =
  with_clean_obs @@ fun () ->
  let p =
    Obs.Export.Point
      { Obs.Export.series = "qp.iteration"; span_id = Some 7; iter = 3;
        values = [ ("kkt_residual", 1.25e-4); ("mu", Float.nan) ] }
  in
  let line = Obs.Export.to_json p in
  match Obs.Export.of_json line with
  | Error msg -> Alcotest.failf "point parse failed: %s (%s)" msg line
  | Ok p' ->
    Alcotest.(check string) "point round-trip is a fixed point" line (Obs.Export.to_json p')

let test_rl_emits_points_under_mock_clock =
  with_clean_obs @@ fun () ->
  let source, _advance = Obs.Clock.manual () in
  Obs.Clock.with_source source @@ fun () ->
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  let params = Cellpop.Params.paper_2011 in
  let times = [| 0.0; 60.0; 120.0 |] in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 42) ~n_cells:200 ~times
      ~n_phi:21
  in
  let iterations = 7 in
  let result =
    Deconv.Richardson_lucy.deconvolve ~iterations kernel ~measurements:[| 1.0; 2.0; 1.5 |] ()
  in
  let events = recorded () in
  let points =
    List.filter (fun p -> String.equal p.Obs.Export.series "rl.iteration") (points_of events)
  in
  Alcotest.(check int) "one point per RL iteration" result.Deconv.Richardson_lucy.iterations
    (List.length points);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "RL iteration index" (i + 1) p.Obs.Export.iter;
      check_true "rel_change present" (List.mem_assoc "rel_change" p.Obs.Export.values);
      check_true "misfit present" (List.mem_assoc "misfit" p.Obs.Export.values))
    points;
  (* Points ride inside the rl.deconvolve span. *)
  let rl_span =
    List.find_map
      (function
        | Obs.Export.Span s when String.equal s.Obs.Export.name "rl.deconvolve" -> Some s
        | _ -> None)
      events
  in
  match rl_span with
  | None -> Alcotest.fail "no rl.deconvolve span recorded"
  | Some s ->
    List.iter
      (fun p ->
        Alcotest.(check (option int)) "point attached to rl.deconvolve"
          (Some s.Obs.Export.id) p.Obs.Export.span_id)
      points

let tests =
  [
    ( "perf-gate",
      [
        case "2x regression fails" test_gate_flags_2x_regression;
        case "10% jitter passes" test_gate_passes_jitter;
        case "2x speedup improves" test_gate_flags_improvement;
        case "delta floor absorbs ms drift" test_gate_delta_floor;
        case "tolerance sets the band" test_gate_tolerance_sets_band;
        case "unmatched spans skipped" test_gate_skips_unmatched_spans;
        case "repeated spans sum per name" test_gate_sums_repeated_spans;
      ] );
    ( "perf-convergence",
      [
        case "qp emits one point per iteration" test_qp_emits_one_point_per_iteration;
        case "direct solve emits one point" test_qp_direct_solve_emits_single_point;
        case "point jsonl round-trip" test_point_round_trips_jsonl;
        case "rl emits ordered points" test_rl_emits_points_under_mock_clock;
      ] );
  ]
