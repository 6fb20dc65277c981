(* Solution-quality observatory: diag event round-trip, the diagnose
   report card on a real ftsZ solve, trace-diff verdicts, and the
   runs-test statistic against known sign sequences. *)

open Numerics
open Testutil

(* Same cleanup discipline as test_obs: every test that installs a sink
   uninstalls it even on failure. *)
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

let diags events = List.filter_map (function Obs.Export.Diag d -> Some d | _ -> None) events

(* ---------------- a small real solve, traced ---------------- *)

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 700) ~n_cells:3000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

(* The paper's flagship profile: ftsZ's delayed pulse. *)
let ftsz_data =
  lazy (Deconv.Forward.apply_fn (Lazy.force kernel) Biomodels.Ftsz.profile)

let make_problem () =
  Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis
    ~measurements:(Lazy.force ftsz_data) ~params ()

(* Trace one robust ftsZ solve (λ by GCV) into memory. *)
let traced_solve_events =
  lazy
    (Obs.Span.reset ();
     let sink, recorded = Obs.Export.memory () in
     Obs.Export.install sink;
     Fun.protect
       ~finally:(fun () ->
         Obs.Export.uninstall ();
         Obs.Span.reset ())
       (fun () ->
         let problem = make_problem () in
         let lambda =
           Deconv.Lambda.select problem ~method_:`Gcv ~rng:(Rng.create 41) ()
         in
         (match Deconv.Solver.solve_robust ~lambda problem with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "robust solve failed: %s" (Robust.Error.to_string e));
         recorded ()))

(* ---------------- JSONL round-trip ---------------- *)

let test_diag_json_round_trip =
  with_clean_obs @@ fun () ->
  let d =
    Obs.Diag.make ~solve:"gene:12" ~stage:"solve"
      ~values:
        [
          ("kappa", 8.708576532223505e9);
          ("lambda", 1.3335214321633241e-06);
          ("edf", 8.5247203177508961);
          ("bad", Float.nan);
          ("worse", Float.infinity);
        ]
      ~tags:[ ("solved_by", "constrained QP"); ("cascade", "constrained_qp") ]
      ~curve:[| (1e-6, 0.25); (1e-5, Float.neg_infinity); (1e-4, 0.5) |]
      ()
  in
  let line = Obs.Export.to_json (Obs.Export.Diag d) in
  match Obs.Export.of_json line with
  | Error msg -> Alcotest.failf "diag line failed to parse: %s" msg
  | Ok (Obs.Export.Diag d') ->
    Alcotest.(check string) "solve id" d.Obs.Diag.d_solve d'.Obs.Diag.d_solve;
    Alcotest.(check string) "stage" d.Obs.Diag.d_stage d'.Obs.Diag.d_stage;
    Alcotest.(check (list string)) "value keys"
      (List.map fst d.Obs.Diag.d_values)
      (List.map fst d'.Obs.Diag.d_values);
    List.iter2
      (fun (k, v) (_, v') ->
        check_true (Printf.sprintf "value %s round-trips exactly" k)
          (Float.equal v v' || (Float.is_nan v && Float.is_nan v')))
      d.Obs.Diag.d_values d'.Obs.Diag.d_values;
    Alcotest.(check (list (pair string string))) "tags" d.Obs.Diag.d_tags d'.Obs.Diag.d_tags;
    Alcotest.(check int) "curve length" (Array.length d.Obs.Diag.d_curve)
      (Array.length d'.Obs.Diag.d_curve);
    Array.iteri
      (fun i (l, s) ->
        let l', s' = d'.Obs.Diag.d_curve.(i) in
        check_true "curve lambda exact" (Float.equal l l');
        check_true "curve score exact"
          (Float.equal s s' || (Float.is_nan s && Float.is_nan s')))
      d.Obs.Diag.d_curve;
    (* the serialized form itself is a fixed point *)
    Alcotest.(check string) "to_json is a fixed point" line
      (Obs.Export.to_json (Obs.Export.Diag d'))
  | Ok _ -> Alcotest.fail "diag line parsed as a different event kind"

let test_diag_solve_labels =
  with_clean_obs @@ fun () ->
  let source, _ = Obs.Clock.manual () in
  Obs.Clock.with_source source (fun () ->
      let sink, recorded = Obs.Export.memory () in
      Obs.Export.install sink;
      Obs.Diag.with_solve "gene:3" (fun () ->
          Obs.Diag.emit (Obs.Diag.make ~stage:"qp" ());
          Obs.Diag.with_solve "gene:4" (fun () ->
              Obs.Diag.emit (Obs.Diag.make ~stage:"qp" ()));
          (* the outer label is restored after the nested scope *)
          Obs.Diag.emit (Obs.Diag.make ~stage:"rl" ()));
      Obs.Diag.emit (Obs.Diag.make ~stage:"qp" ());
      match List.map (fun d -> d.Obs.Diag.d_solve) (diags (recorded ())) with
      | [ a; b; c; d ] ->
        Alcotest.(check string) "scoped" "gene:3" a;
        Alcotest.(check string) "nested" "gene:4" b;
        Alcotest.(check string) "restored" "gene:3" c;
        Alcotest.(check string) "outside any scope" "solve" d
      | ds -> Alcotest.failf "expected 4 diags, got %d" (List.length ds))

let test_diag_by_solve () =
  let rec_ solve stage = Obs.Export.Diag (Obs.Diag.make ~solve ~stage ()) in
  let stream =
    [
      rec_ "gene:2" "lambda";
      Obs.Export.Span
        { Obs.Export.id = 1; parent = None; name = "solve"; start_s = 0.0; stop_s = 1.0; attrs = [] };
      rec_ "gene:0" "lambda";
      rec_ "gene:2" "solve";
      rec_ "gene:0" "solve";
      rec_ "gene:0" "qp";
    ]
  in
  let grouped =
    List.map
      (fun (solve, ds) -> (solve, List.map (fun d -> d.Obs.Diag.d_stage) ds))
      (Obs.Diag.by_solve stream)
  in
  Alcotest.(check (list (pair string (list string))))
    "groups in first-seen order, records in emission order, spans ignored"
    [ ("gene:2", [ "lambda"; "solve" ]); ("gene:0", [ "lambda"; "solve"; "qp" ]) ]
    grouped;
  Alcotest.(check int) "an empty stream has no groups" 0 (List.length (Obs.Diag.by_solve []))

let test_diag_disabled_is_noop =
  with_clean_obs @@ fun () ->
  Alcotest.(check bool) "diag disabled without a sink" false (Obs.Diag.enabled ());
  Obs.Diag.emit (Obs.Diag.make ~stage:"solve" ~values:[ ("kappa", 1.0) ] ());
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Alcotest.(check int) "nothing recorded retroactively" 0 (List.length (recorded ()))

(* ---------------- the diagnose report card on ftsZ ---------------- *)

let test_ftsz_solve_emits_quality_record () =
  let events = Lazy.force traced_solve_events in
  let ds = diags events in
  check_true "a lambda-profile diag is on the stream"
    (List.exists (fun d -> String.equal d.Obs.Diag.d_stage "lambda") ds);
  check_true "a qp diag is on the stream"
    (List.exists (fun d -> String.equal d.Obs.Diag.d_stage "qp") ds);
  let solve =
    match List.find_opt (fun d -> String.equal d.Obs.Diag.d_stage "solve") ds with
    | Some d -> d
    | None -> Alcotest.fail "no per-solve quality record on the stream"
  in
  let v key =
    match Obs.Diag.value solve key with
    | Some v -> v
    | None -> Alcotest.failf "solve record carries no %s" key
  in
  check_true "kappa finite and >= 1" (Float.is_finite (v "kappa") && v "kappa" >= 1.0);
  check_true "lambda positive" (v "lambda" > 0.0);
  check_true "edf within (0, n)" (v "edf" > 0.0 && v "edf" < v "n");
  check_true "rss finite" (Float.is_finite (v "rss"));
  check_true "whiteness statistic present" (Float.is_finite (v "runs_z"));
  (match Obs.Diag.tag solve "cascade" with
  | Some path -> check_true "cascade path non-empty" (String.length path > 0)
  | None -> Alcotest.fail "solve record carries no cascade tag")

let render_report ?plot cards = capture (fun oc -> Deconv.Quality.output_report ?plot oc cards)

let test_ftsz_report_card () =
  let events = Lazy.force traced_solve_events in
  match Deconv.Quality.cards events with
  | [ card ] ->
    check_true "card is healthy on the inverse-crime fixture"
      (card.Deconv.Quality.flags = []);
    Alcotest.(check string) "selector recorded" "gcv" card.Deconv.Quality.selector;
    check_true "candidate profile captured"
      (Array.length card.Deconv.Quality.curve >= 10);
    let report = render_report [ card ] in
    List.iter
      (fun needle ->
        check_true (Printf.sprintf "report mentions %s" needle) (contains ~needle report))
      [
        "kappa"; "lambda"; "edf"; "rss"; "white (runs z="; "normality z=";
        "cascade"; "lambda profile"; "1 solve(s), 0 flagged";
      ];
    let no_plot = render_report ~plot:false [ card ] in
    check_true "--no-plot drops the profile plot"
      (not (contains ~needle:"lambda profile" no_plot))
  | cards -> Alcotest.failf "expected exactly one card, got %d" (List.length cards)

let test_report_flags_unhealthy_solve () =
  (* A synthetic stream describing a degraded, ill-conditioned solve with
     serially correlated residuals: every flag the ISSUE names. *)
  let solve =
    Obs.Diag.make ~solve:"gene:7" ~stage:"solve"
      ~values:
        [
          ("kappa", 1e14);
          ("lambda", 1e-9);
          ("entry_lambda", 1e-9);
          ("edf", 12.6);
          ("rss", 0.5);
          ("n", 13.0);
          ("runs_z", -4.2);
          ("normality_z", 5.0);
          ("degradation", 2.0);
          ("active_positivity", 0.0);
          ("qp_iterations", 0.0);
        ]
      ~tags:[ ("solved_by", "unconstrained"); ("cascade", "constrained_qp!>unconstrained") ]
      ()
  in
  match Deconv.Quality.cards [ Obs.Export.Diag solve ] with
  | [ card ] ->
    check_true "card is flagged" (card.Deconv.Quality.flags <> []);
    let verdict = String.concat ", " card.Deconv.Quality.flags in
    List.iter
      (fun needle ->
        check_true (Printf.sprintf "verdict carries %s" needle) (contains ~needle verdict))
      [
        "kappa-overflow"; "edf-saturated"; "non-white-residuals"; "non-normal-residuals";
        "degraded-cascade";
      ];
    let report = render_report [ card ] in
    check_true "footer counts the flagged solve"
      (contains ~needle:"1 solve(s), 1 flagged" report);
    check_true "json carries the flags"
      (contains ~needle:"kappa-overflow" (Deconv.Quality.report_json [ card ]))
  | cards -> Alcotest.failf "expected exactly one card, got %d" (List.length cards)

let healthy_solve ~kappa =
  Obs.Export.Diag
    (Obs.Diag.make ~solve:"gene:1" ~stage:"solve"
       ~values:
         [
           ("kappa", kappa); ("lambda", 1e-4); ("entry_lambda", 1e-4); ("edf", 4.0);
           ("rss", 0.5); ("n", 13.0); ("runs_z", 0.3); ("normality_z", -0.4);
           ("degradation", 0.0); ("active_positivity", 2.0); ("qp_iterations", 3.0);
         ]
       ~tags:[ ("solved_by", "constrained_qp"); ("cascade", "constrained_qp") ]
       ())

let test_report_thresholds () =
  let t = Deconv.Quality.default_thresholds in
  check_close ~tol:0.0 "the kappa limit is the solver's condition limit"
    Deconv.Solver.default_policy.Deconv.Solver.condition_limit t.Deconv.Quality.kappa_limit;
  let flags ?thresholds kappa =
    match Deconv.Quality.cards ?thresholds [ healthy_solve ~kappa ] with
    | [ card ] -> card.Deconv.Quality.flags
    | cards -> Alcotest.failf "expected exactly one card, got %d" (List.length cards)
  in
  Alcotest.(check (list string)) "a well-conditioned solve is healthy" [] (flags 1e6);
  Alcotest.(check (list string)) "above the default limit" [ "kappa-overflow" ] (flags 1e13);
  Alcotest.(check (list string)) "a raised limit clears the flag" []
    (flags ~thresholds:{ t with Deconv.Quality.kappa_limit = 1e14 } 1e13)

let test_summarize_quantiles () =
  let per_gene =
    List.init 10 (fun i ->
        let v = float_of_int (i + 1) in
        [ ("edf", v); ("kappa", if i = 0 then Float.nan else 10.0 *. v) ])
  in
  match Deconv.Quality.summarize per_gene with
  | [ ("edf", edf); ("kappa", kappa) ] ->
    check_close "edf p50" 5.5 edf.Deconv.Quality.q50;
    check_close "edf p90" 9.1 edf.Deconv.Quality.q90;
    check_close "edf max" 10.0 edf.Deconv.Quality.q_max;
    Alcotest.(check int) "edf count" 10 edf.Deconv.Quality.count;
    Alcotest.(check int) "the NaN kappa is dropped" 9 kappa.Deconv.Quality.count;
    check_close "kappa p50 over the finite values" 60.0 kappa.Deconv.Quality.q50
  | s -> Alcotest.failf "expected edf then kappa, got %d keys" (List.length s)

let summary_fixture =
  [
    ("edf", { Deconv.Quality.q50 = 4.5; q90 = 6.25; q_max = 7.0; count = 12 });
    ("kappa", { Deconv.Quality.q50 = 1e3; q90 = 2e4; q_max = 5e4; count = 11 });
  ]

let test_publish_quantiles () =
  Obs.Metrics.enable ();
  Deconv.Quality.publish ~prefix:"batch" summary_fixture;
  let gauge name =
    match
      List.find_opt (fun (m : Obs.Metrics.snapshot) -> String.equal m.Obs.Metrics.name name)
        (Obs.Metrics.snapshot ())
    with
    | Some m -> List.assoc "value" m.Obs.Metrics.fields
    | None -> Alcotest.failf "gauge %s was not published" name
  in
  check_close "edf p50" 4.5 (gauge "batch.quality.edf.p50");
  check_close "edf p90" 6.25 (gauge "batch.quality.edf.p90");
  check_close "kappa p90" 2e4 (gauge "batch.quality.kappa.p90");
  check_true "no max gauge"
    (List.for_all
       (fun (m : Obs.Metrics.snapshot) -> not (contains ~needle:"max" m.Obs.Metrics.name))
       (Obs.Metrics.snapshot ()))

let test_quantile_table () =
  let text = capture (fun oc -> Deconv.Quality.output_quantiles oc summary_fixture) in
  check_true "header" (contains ~needle:"per-gene quality quantiles:" text);
  check_true "edf row with its gene count" (contains ~needle:"(12)" text);
  check_true "kappa row" (contains ~needle:"kappa" text && contains ~needle:"5e+04" text);
  Alcotest.(check string) "an empty summary prints nothing" ""
    (capture (fun oc -> Deconv.Quality.output_quantiles oc []))

(* ---------------- trace diff ---------------- *)

let span ~id ~name ~start_s ~stop_s =
  Obs.Export.Span
    { Obs.Export.id; parent = None; name; start_s; stop_s; attrs = [] }

let solve_diag ~kappa ~rss =
  Obs.Export.Diag
    (Obs.Diag.make ~solve:"gene:0" ~stage:"solve"
       ~values:[ ("kappa", kappa); ("rss", rss) ]
       ())

let test_trace_diff_regression () =
  let a = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.10 ] in
  let b = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.25 ] in
  let d = Obs.Tracediff.diff a b in
  check_true "2.5x slowdown is a regression" (Obs.Tracediff.has_regression d);
  (match d.Obs.Tracediff.time with
  | [ row ] ->
    check_true "verdict is Regression"
      (match row.Obs.Tracediff.verdict with Obs.Tracediff.Regression -> true | _ -> false);
    check_close ~tol:1e-9 "ratio" 2.5 row.Obs.Tracediff.ratio
  | rows -> Alcotest.failf "expected one time row, got %d" (List.length rows));
  check_true "no quality rows without diags" (not (Obs.Tracediff.has_quality_delta d))

let test_trace_diff_rejects_bad_tolerance () =
  (* NaN fails both band comparisons, so an unchecked NaN tolerance
     passed this 2.5x slowdown as "ok"; a negative band means nothing. *)
  let a = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.10 ] in
  let b = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.25 ] in
  List.iter
    (fun tolerance ->
      match Obs.Tracediff.diff ~tolerance a b with
      | exception Invalid_argument _ -> ()
      | d ->
        Alcotest.failf "tolerance %g accepted (regression reported: %b)" tolerance
          (Obs.Tracediff.has_regression d))
    [ Float.nan; Float.infinity; -0.1 ]

let test_trace_diff_default_tolerance () =
  check_close ~tol:0.0 "a 30% band" 0.30 Obs.Tracediff.default_tolerance;
  let a = [ span ~id:1 ~name:"solve" ~start_s:0.0 ~stop_s:1.0 ] in
  let slower stop_s = [ span ~id:1 ~name:"solve" ~start_s:0.0 ~stop_s ] in
  check_true "35% slower is outside the default band"
    (Obs.Tracediff.has_regression (Obs.Tracediff.diff a (slower 1.35)));
  check_true "25% slower is inside it"
    (not (Obs.Tracediff.has_regression (Obs.Tracediff.diff a (slower 1.25))));
  check_true "the default is what an explicit band of the same width gives"
    (Obs.Tracediff.has_regression
       (Obs.Tracediff.diff ~tolerance:Obs.Tracediff.default_tolerance a (slower 1.35)));
  check_true "a wider band passes the 35% slowdown"
    (not (Obs.Tracediff.has_regression (Obs.Tracediff.diff ~tolerance:0.5 a (slower 1.35))))

let test_trace_diff_jitter_passes () =
  (* 10% drift is inside the default 30% band: noise, not a regression. *)
  let a = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.10 ] in
  let b = [ span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.11 ] in
  let d = Obs.Tracediff.diff a b in
  check_true "within tolerance" (not (Obs.Tracediff.has_regression d));
  (* sub-noise-floor spans are skipped, not gated, even at huge ratios *)
  let a = [ span ~id:1 ~name:"tiny" ~start_s:0.0 ~stop_s:2e-5 ] in
  let b = [ span ~id:1 ~name:"tiny" ~start_s:0.0 ~stop_s:8e-5 ] in
  let d = Obs.Tracediff.diff a b in
  check_true "below the noise floor: skipped" (not (Obs.Tracediff.has_regression d));
  match d.Obs.Tracediff.time with
  | [ row ] ->
    check_true "verdict is Skipped"
      (match row.Obs.Tracediff.verdict with Obs.Tracediff.Skipped _ -> true | _ -> false)
  | rows -> Alcotest.failf "expected one time row, got %d" (List.length rows)

let test_trace_diff_quality_delta () =
  let a = [ solve_diag ~kappa:1e9 ~rss:0.25 ] in
  let b = [ solve_diag ~kappa:1e9 ~rss:0.25000001 ] in
  let d = Obs.Tracediff.diff a b in
  check_true "bit-level rss drift is a quality delta" (Obs.Tracediff.has_quality_delta d);
  (match d.Obs.Tracediff.quality with
  | [ row ] ->
    Alcotest.(check string) "the drifting statistic" "solve/rss" row.Obs.Tracediff.stat;
    Alcotest.(check string) "joined by solve id" "gene:0" row.Obs.Tracediff.solve
  | rows -> Alcotest.failf "expected one quality row, got %d" (List.length rows));
  (* identical streams: every statistic checked, zero deltas *)
  let d = Obs.Tracediff.diff a a in
  check_true "identical traces have no deltas" (not (Obs.Tracediff.has_quality_delta d));
  Alcotest.(check int) "both statistics were compared" 2 d.Obs.Tracediff.quality_checked;
  (* NaN = NaN is not a delta: both runs failing to produce a statistic *)
  let na = [ solve_diag ~kappa:Float.nan ~rss:0.25 ] in
  let d = Obs.Tracediff.diff na na in
  check_true "NaN on both sides is not a delta" (not (Obs.Tracediff.has_quality_delta d))

let curve_diag curve =
  Obs.Export.Diag
    (Obs.Diag.make ~solve:"gene:0" ~stage:"lambda" ~values:[ ("chosen", 1e-4) ] ~curve ())

let test_trace_diff_curve_score_band () =
  (* Candidate scores near the interpolation boundary round ~ε·κ apart
     between the direct and spectral evaluation orders; the curve-score
     comparison tolerates that band so a perf PR's receipt stays clean. *)
  let a = curve_diag [| (1e-6, 0.25); (1e-5, 1035.0397163648702); (1e-4, 0.5) |] in
  let b = curve_diag [| (1e-6, 0.25); (1e-5, 1034.9733878200932); (1e-4, 0.5) |] in
  let d = Obs.Tracediff.diff [ a ] [ b ] in
  check_true "ε·κ-scale score rounding is not a delta"
    (not (Obs.Tracediff.has_quality_delta d));
  (* a percent-scale score change is a real selector drift *)
  let b = curve_diag [| (1e-6, 0.25); (1e-5, 1035.0397163648702); (1e-4, 0.51) |] in
  let d = Obs.Tracediff.diff [ a ] [ b ] in
  check_true "2% score change is a delta" (Obs.Tracediff.has_quality_delta d);
  (match d.Obs.Tracediff.quality with
  | [ row ] ->
    Alcotest.(check string) "reported at the drifting candidate" "lambda/curve[2].score"
      row.Obs.Tracediff.stat
  | rows -> Alcotest.failf "expected one quality row, got %d" (List.length rows));
  (* the λ grid itself still compares bit-exactly *)
  let b = curve_diag [| (1e-6, 0.25); (1.0000001e-5, 1035.0397163648702); (1e-4, 0.5) |] in
  let d = Obs.Tracediff.diff [ a ] [ b ] in
  check_true "a shifted grid point is a delta" (Obs.Tracediff.has_quality_delta d);
  match d.Obs.Tracediff.quality with
  | [ row ] ->
    Alcotest.(check string) "reported as a lambda drift" "lambda/curve[1].lambda"
      row.Obs.Tracediff.stat
  | rows -> Alcotest.failf "expected one quality row, got %d" (List.length rows)

let test_trace_diff_identical_run =
  (* The acceptance check: a trace diffed against itself is silent on both
     axes. Use the real traced solve so every event kind is exercised. *)
  with_clean_obs @@ fun () ->
  let events = Lazy.force traced_solve_events in
  let d = Obs.Tracediff.diff events events in
  check_true "no time regressions" (not (Obs.Tracediff.has_regression d));
  check_true "no quality deltas" (not (Obs.Tracediff.has_quality_delta d));
  check_true "statistics were actually compared" (d.Obs.Tracediff.quality_checked > 0);
  Alcotest.(check (list string)) "no unmatched solves in A" [] d.Obs.Tracediff.only_a;
  Alcotest.(check (list string)) "no unmatched solves in B" [] d.Obs.Tracediff.only_b

let render_diff d =
  let path = Filename.temp_file "deconv_trace_diff" ".txt" in
  let oc = open_out path in
  Obs.Tracediff.output oc d;
  close_out oc;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let diag_for solve =
  Obs.Export.Diag (Obs.Diag.make ~solve ~stage:"solve" ~values:[ ("kappa", 1e9) ] ())

let test_trace_diff_unmatched_solves () =
  let a = [ diag_for "gene:0"; diag_for "gene:1" ] in
  let b = [ diag_for "gene:0"; diag_for "gene:2" ] in
  let d = Obs.Tracediff.diff a b in
  Alcotest.(check (list string)) "solves only in A" [ "gene:1" ] d.Obs.Tracediff.only_a;
  Alcotest.(check (list string)) "solves only in B" [ "gene:2" ] d.Obs.Tracediff.only_b;
  Alcotest.(check int) "matched solve compared" 1 d.Obs.Tracediff.quality_checked;
  check_true "no statistic drifted" (d.Obs.Tracediff.quality = []);
  check_true "an unmatched solve is a quality delta" (Obs.Tracediff.has_quality_delta d)

let test_trace_diff_curve_length () =
  let a = curve_diag [| (1e-6, 0.25); (1e-5, 0.3); (1e-4, 0.5) |] in
  let b = curve_diag [| (1e-6, 0.25); (1e-5, 0.3) |] in
  match (Obs.Tracediff.diff [ a ] [ b ]).Obs.Tracediff.quality with
  | [ row ] ->
    Alcotest.(check string) "reported as a length change" "lambda/curve.length"
      row.Obs.Tracediff.stat;
    Alcotest.(check (float 0.0)) "length in A" 3.0 row.Obs.Tracediff.value_a;
    Alcotest.(check (float 0.0)) "length in B" 2.0 row.Obs.Tracediff.value_b
  | rows -> Alcotest.failf "expected one quality row, got %d" (List.length rows)

let test_trace_diff_verdict_line () =
  (* A time regression outranks quality drift in the one-line verdict. *)
  let fast = span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.10 in
  let slow = span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.25 in
  let a = solve_diag ~kappa:1e9 ~rss:0.25 and b = solve_diag ~kappa:1e9 ~rss:0.5 in
  List.iter
    (fun (label, events_a, events_b, expected) ->
      let text = render_diff (Obs.Tracediff.diff events_a events_b) in
      check_true
        (Printf.sprintf "%s: verdict %s" label expected)
        (contains ~needle:(Printf.sprintf "\ntrace diff verdict: %s\n" expected) text))
    [
      ("identical", [ a; fast ], [ a; fast ], "no regressions");
      ("quality only", [ a; fast ], [ b; fast ], "quality drift");
      ("slowdown and drift", [ a; fast ], [ b; slow ], "REGRESSION");
    ]

let test_trace_diff_table_format () =
  let a =
    [ solve_diag ~kappa:1e9 ~rss:0.25; span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.10 ]
  in
  let b =
    [
      solve_diag ~kappa:1e9 ~rss:0.5;
      span ~id:1 ~name:"qp.solve" ~start_s:0.0 ~stop_s:0.25;
      span ~id:2 ~name:"extra" ~start_s:0.0 ~stop_s:0.01;
    ]
  in
  let text = render_diff (Obs.Tracediff.diff a b) in
  List.iter
    (fun line -> check_true (Printf.sprintf "renders %S" line) (contains ~needle:line text))
    [
      "wall time by span (A -> B, ms total):\n";
      "  qp.solve                                  1x      1x     100.000     250.000"
      ^ "    2.50  REGRESSION\n";
      "  extra                                     0x      1x           -      10.000"
      ^ "       -  skipped (absent from A)\n";
      "quality: 2 statistics compared, 1 deltas\n";
      "  gene:0       solve/rss                    0.25 -> 0.5\n";
    ]

(* ---------------- the runs test ---------------- *)

let test_runs_z_known_sequences () =
  (* Perfectly alternating signs: far more runs than chance — large
     positive z. 20 points, 10+/10-: E[R]=11, Var=100*80/(400*19),
     R=20 -> z = 9/sqrt(4.736...) ~ +4.135. *)
  let alternating = Array.init 20 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_close ~tol:1e-3 "alternating signs" 4.135 (Stats.runs_z alternating);
  (* One long positive block then one negative block: R=2, far fewer runs
     than chance — strongly negative z. *)
  let blocks = Array.init 20 (fun i -> if i < 10 then 1.0 else -1.0) in
  check_close ~tol:1e-3 "two blocks" (-4.135) (Stats.runs_z blocks);
  (* All one sign: the statistic is undefined; defined as 0. *)
  Alcotest.(check (float 0.0)) "single sign degenerates to 0" 0.0
    (Stats.runs_z (Array.make 12 1.0));
  Alcotest.(check (float 0.0)) "empty input" 0.0 (Stats.runs_z [||]);
  (* Symmetry: negating the sequence preserves the runs count exactly. *)
  check_close ~tol:1e-12 "sign symmetry" (Stats.runs_z blocks)
    (Stats.runs_z (Array.map (fun v -> -.v) blocks))

let test_normality_z_known_sequences () =
  (* A symmetric two-point distribution has skew 0 and kurtosis -2:
     z_kurt = -2 / sqrt(24/n). *)
  let pm = Array.init 24 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_close ~tol:1e-9 "normality_z is the two-point kurtosis z" (2.0 /. sqrt (24.0 /. 24.0))
    (Stats.normality_z pm);
  (* Degenerate inputs are defined as 0, not NaN. *)
  Alcotest.(check (float 0.0)) "constant input" 0.0 (Stats.normality_z (Array.make 10 3.0));
  Alcotest.(check (float 0.0)) "n<3" 0.0 (Stats.normality_z [| 1.0; 2.0 |])

let tests =
  [
    ( "diag-events",
      [
        case "jsonl round trip" test_diag_json_round_trip;
        case "ambient solve labels" test_diag_solve_labels;
        case "disabled path records nothing" test_diag_disabled_is_noop;
        case "records grouped by solve" test_diag_by_solve;
      ] );
    ( "diag-report",
      [
        case "ftsz solve emits the quality record" test_ftsz_solve_emits_quality_record;
        case "ftsz report card" test_ftsz_report_card;
        case "unhealthy solve raises every flag" test_report_flags_unhealthy_solve;
        case "thresholds decide the flags" test_report_thresholds;
        case "per-gene quantiles" test_summarize_quantiles;
        case "quantiles published as gauges" (with_clean_obs test_publish_quantiles);
        case "quantile table" test_quantile_table;
      ] );
    ( "diag-tracediff",
      [
        case "slowdown beyond tolerance regresses" test_trace_diff_regression;
        case "jitter and sub-floor spans pass" test_trace_diff_jitter_passes;
        case "default tolerance band" test_trace_diff_default_tolerance;
        case "quality drift is exact" test_trace_diff_quality_delta;
        case "curve scores carry a relative band" test_trace_diff_curve_score_band;
        case "identical run diffs silent" test_trace_diff_identical_run;
        case "non-finite or negative tolerance rejected" test_trace_diff_rejects_bad_tolerance;
        case "unmatched solves listed" test_trace_diff_unmatched_solves;
        case "curve length change is a delta" test_trace_diff_curve_length;
        case "regression outranks drift in the verdict" test_trace_diff_verdict_line;
        case "table rows keep their format" test_trace_diff_table_format;
      ] );
    ( "diag-stats",
      [
        case "runs test on known sequences" test_runs_z_known_sequences;
        case "normality moments on known sequences" test_normality_z_known_sequences;
      ] );
  ]
