(* Tests for the deconv-lint static-analysis pass (lib/analysis).
   Violating code lives inside string literals, so linting this very file
   stays clean, and the suppression scanner must not mistake the marker
   text in those strings for a real suppression comment. *)

open Testutil

let lint ?disabled ~path src =
  match Analysis.Lint.lint_source ?disabled ~path src with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "lint_source failed on %s: %s" path msg

let rules_of findings =
  List.sort String.compare (List.map (fun f -> f.Analysis.Finding.rule) findings)

let check_rules msg expected ?disabled ~path src =
  Alcotest.(check (list string))
    msg
    (List.sort String.compare expected)
    (rules_of (lint ?disabled ~path src))

(* R1: polymorphic comparison on float operands. *)

let test_r1_positive () =
  check_rules "float '='" [ "R1" ] ~path:"lib/scratch.ml" "let f x = x = 0.0";
  check_rules "float '<>'" [ "R1" ] ~path:"lib/scratch.ml" "let f x = x <> 1.5";
  check_rules "compare on float arithmetic" [ "R1" ] ~path:"lib/scratch.ml"
    "let f a b = compare (a *. 2.0) b";
  check_rules "min on float" [ "R1" ] ~path:"lib/scratch.ml" "let f a b = min a (b +. 1.0)";
  check_rules "R1 applies outside lib too" [ "R1" ] ~path:"test/scratch.ml"
    "let f x = x = 0.0"

let test_r1_negative () =
  check_rules "Float.equal is fine" [] ~path:"lib/scratch.ml" "let f x = Float.equal x 0.0";
  check_rules "int '=' is fine" [] ~path:"lib/scratch.ml" "let f x = x = 0";
  check_rules "explicit tolerance is fine" [] ~path:"lib/scratch.ml"
    "let f x = Float.abs (x -. 1.0) < 1e-9"

let test_r1_location () =
  match lint ~path:"lib/scratch.ml" "let f x = x = 0.0" with
  | [ f ] ->
    let text = Analysis.Finding.to_text f in
    check_true "file:line:col and rule id in text"
      (contains ~needle:"lib/scratch.ml:1:13: [R1]" text)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* R2: catch-all exception handlers in library code. *)

let test_r2_positive () =
  check_rules "wildcard handler" [ "R2" ] ~path:"lib/scratch.ml"
    "let f g = try g () with _ -> 0";
  check_rules "variable handler without re-raise" [ "R2" ] ~path:"lib/scratch.ml"
    "let f g = try g () with e -> String.length (Printexc.to_string e)";
  check_rules "catch-all exception case in match" [ "R2" ] ~path:"lib/scratch.ml"
    "let f g = match g () with x -> x | exception _ -> 0"

let test_r2_negative () =
  check_rules "specific exception is fine" [] ~path:"lib/scratch.ml"
    "let f g = try g () with Not_found -> 0";
  check_rules "re-raising variable handler is fine" [] ~path:"lib/scratch.ml"
    "let f g = try g () with e -> raise e";
  check_rules "R2 does not apply outside lib" [] ~path:"bench/scratch.ml"
    "let f g = try g () with _ -> 0"

(* R3: partial accessors. *)

let test_r3_positive () =
  check_rules "List.hd" [ "R3" ] ~path:"lib/scratch.ml" "let f l = List.hd l";
  check_rules "List.tl" [ "R3" ] ~path:"lib/scratch.ml" "let f l = List.tl l";
  check_rules "Option.get" [ "R3" ] ~path:"test/scratch.ml" "let f o = Option.get o"

let test_r3_negative () =
  check_rules "pattern match is fine" [] ~path:"lib/scratch.ml"
    "let f l = match l with [] -> 0 | x :: _ -> x";
  check_rules "Option.value is fine" [] ~path:"lib/scratch.ml"
    "let f o = Option.value o ~default:0"

(* R4: magic paper constants outside the params module. *)

let test_r4_positive () =
  check_rules "0.15 in library code" [ "R4" ] ~path:"lib/foo/scratch.ml" "let x = 0.15";
  check_rules "0.6 in library code" [ "R4" ] ~path:"lib/foo/scratch.ml" "let y = 0.6"

let test_r4_negative () =
  check_rules "params.ml is the allowed site" [] ~path:"lib/cellpop/params.ml"
    "let x = 0.15";
  check_rules "R4 does not apply outside lib" [] ~path:"bench/scratch.ml" "let x = 0.15";
  check_rules "data-table literals are exempt" [] ~path:"lib/foo/scratch.ml"
    "let xs = [| 0.15; 0.4; 0.6 |]";
  check_rules "non-magic constants are fine" [] ~path:"lib/foo/scratch.ml" "let x = 0.25"

(* R5: stdout/stderr side effects in library code. *)

let test_r5_positive () =
  check_rules "print_endline" [ "R5" ] ~path:"lib/scratch.ml"
    "let f () = print_endline \"hi\"";
  check_rules "Printf.printf" [ "R5" ] ~path:"lib/scratch.ml"
    "let f () = Printf.printf \"%d\" 3";
  check_rules "Stdlib.print_endline" [ "R5" ] ~path:"lib/core/probe.ml"
    "let f () = Stdlib.print_endline \"hi\"";
  check_rules "Stdlib.Printf.printf" [ "R5" ] ~path:"lib/core/probe.ml"
    "let f () = Stdlib.Printf.printf \"%d\" 3"

let test_r5_negative () =
  check_rules "printing from bin is fine" [] ~path:"bin/scratch.ml"
    "let f () = print_endline \"hi\"";
  check_rules "Printf.sprintf is fine in lib" [] ~path:"lib/scratch.ml"
    "let f () = Printf.sprintf \"%d\" 3"

(* R6: ignoring result-carrying expressions. *)

let test_r6_positive () =
  check_rules "ignore (validate ...)" [ "R6" ] ~path:"lib/scratch.ml"
    "let f x = ignore (validate x)";
  check_rules "|> ignore" [ "R6" ] ~path:"lib/scratch.ml" "let f x = validate x |> ignore";
  check_rules "ignore on Result combinator" [ "R6" ] ~path:"lib/scratch.ml"
    "let f r = ignore (Result.map succ r)"

let test_r6_negative () =
  check_rules "ignoring a plain value is fine" [] ~path:"lib/scratch.ml"
    "let f x = ignore (succ x)"

(* R7: raw timing calls outside lib/obs. *)

let test_r7_positive () =
  check_rules "Sys.time in library code" [ "R7" ] ~path:"lib/core/scratch.ml"
    "let t () = Sys.time ()";
  check_rules "R7 applies in bin too" [ "R7" ] ~path:"bin/scratch.ml"
    "let t () = Unix.gettimeofday ()";
  check_rules "bare Unix.times reference" [ "R7" ] ~path:"lib/core/scratch.ml"
    "let t = Unix.times";
  check_rules "Stdlib.Sys.time" [ "R7" ] ~path:"lib/core/probe.ml"
    "let t () = Stdlib.Sys.time ()"

let test_r7_negative () =
  check_rules "lib/obs may read the clock" [] ~path:"lib/obs/scratch.ml"
    "let t () = Unix.gettimeofday ()";
  check_rules "Obs.Clock.now is the sanctioned clock" [] ~path:"lib/core/scratch.ml"
    "let t () = Obs.Clock.now ()"

(* R8: raw concurrency primitives outside lib/parallel and lib/obs. *)

let test_r8_positive () =
  check_rules "Domain.spawn in library code" [ "R8" ] ~path:"lib/core/scratch.ml"
    "let f g = Domain.spawn g";
  check_rules "bare Domain.spawn reference" [ "R8" ] ~path:"lib/core/scratch.ml"
    "let spawn = Domain.spawn";
  check_rules "Mutex.create" [ "R8" ] ~path:"lib/core/scratch.ml" "let m = Mutex.create ()";
  check_rules "Condition.wait" [ "R8" ] ~path:"lib/core/scratch.ml"
    "let f c m = Condition.wait c m";
  check_rules "R8 applies in bin too" [ "R8" ] ~path:"bin/scratch.ml"
    "let m = Mutex.create ()";
  check_rules "Stdlib.Domain.spawn" [ "R8" ] ~path:"lib/core/probe.ml"
    "let f g = Stdlib.Domain.spawn g";
  check_rules "Stdlib.Mutex.create" [ "R8" ] ~path:"lib/core/probe.ml"
    "let m = Stdlib.Mutex.create ()"

let test_r8_negative () =
  check_rules "lib/parallel may spawn" [] ~path:"lib/parallel/scratch.ml"
    "let f g = Domain.spawn g";
  check_rules "lib/parallel may lock" [] ~path:"lib/parallel/scratch.ml"
    "let m = Mutex.create ()";
  check_rules "lib/obs may lock" [] ~path:"lib/obs/scratch.ml" "let m = Mutex.create ()";
  check_rules "other Domain functions are fine" [] ~path:"lib/core/scratch.ml"
    "let n = Domain.recommended_domain_count ()";
  check_rules "the pool API is the sanctioned route" [] ~path:"lib/core/scratch.ml"
    "let f body = Parallel.parallel_for ~n:8 body"

let test_r9_positive () =
  check_rules "open_out in library code" [ "R9" ] ~path:"lib/core/scratch.ml"
    "let f path = open_out path";
  check_rules "open_out_bin partial application" [ "R9" ] ~path:"lib/core/scratch.ml"
    "let opener = open_out_bin";
  check_rules "Stdlib.open_out_gen" [ "R9" ] ~path:"lib/core/scratch.ml"
    "let f p = Stdlib.open_out_gen [Open_append] 0o644 p";
  check_rules "Out_channel.with_open_text" [ "R9" ] ~path:"lib/obs/scratch.ml"
    "let f p s = Out_channel.with_open_text p (fun oc -> Out_channel.output_string oc s)";
  check_rules "Stdlib.Out_channel.open_bin" [ "R9" ] ~path:"lib/core/probe.ml"
    "let f p = Stdlib.Out_channel.open_bin p"

let test_r9_negative () =
  check_rules "the atomic writer itself is exempt" [] ~path:"lib/dataio/atomic_file.ml"
    "let f path = open_out_bin path";
  check_rules "R9 is lib-only: bin may open channels" [] ~path:"bin/scratch.ml"
    "let f path = open_out path";
  check_rules "input channels are fine" [] ~path:"lib/core/scratch.ml"
    "let f path = open_in path";
  check_rules "Out_channel reads of an existing channel are fine" []
    ~path:"lib/core/scratch.ml" "let f oc s = Out_channel.output_string oc s";
  check_rules "a suppression with a reason still works" [] ~path:"lib/core/scratch.ml"
    "let f tmp = open_out tmp (* lint: allow R9 -- same-dir temp file, renamed by caller *)"

(* R13: raw GC/procfs introspection outside lib/obs. *)

let test_r13_positive () =
  check_rules "Gc.stat in library code" [ "R13" ] ~path:"lib/core/scratch.ml"
    "let words () = (Gc.stat ()).Gc.heap_words";
  check_rules "Gc.quick_stat" [ "R13" ] ~path:"lib/core/scratch.ml"
    "let minor () = (Gc.quick_stat ()).Gc.minor_words";
  check_rules "bare Gc.allocated_bytes reference" [ "R13" ] ~path:"lib/core/scratch.ml"
    "let probe = Gc.allocated_bytes";
  check_rules "procfs path literal" [ "R13" ] ~path:"lib/core/scratch.ml"
    "let statm () = open_in \"/proc/self/statm\"";
  check_rules "R13 applies in bin too" [ "R13" ] ~path:"bin/scratch.ml"
    "let s () = Gc.stat ()";
  check_rules "Stdlib.Gc.quick_stat" [ "R13" ] ~path:"lib/core/probe.ml"
    "let s () = Stdlib.Gc.quick_stat ()"

let test_r13_negative () =
  check_rules "lib/obs owns GC introspection" [] ~path:"lib/obs/scratch.ml"
    "let minor () = (Gc.quick_stat ()).Gc.minor_words";
  check_rules "lib/obs owns procfs reads" [] ~path:"lib/obs/scratch.ml"
    "let statm () = open_in \"/proc/self/statm\"";
  check_rules "non-introspecting Gc calls are fine" [] ~path:"lib/core/scratch.ml"
    "let f () = Gc.compact ()";
  check_rules "a non-procfs path is fine" [] ~path:"lib/core/scratch.ml"
    "let f () = open_in \"/tmp/data.csv\"";
  check_rules "a suppression with a reason still works" [] ~path:"lib/core/scratch.ml"
    "let b = Gc.allocated_bytes () (* lint: allow R13 -- one-off allocation probe in a test \
     helper *)"

(* R14: quality-statistic primitives outside lib/numerics and lib/core. *)

let test_r14_positive () =
  check_rules "condition number in an outer library layer" [ "R14" ]
    ~path:"lib/cellpop/scratch.ml" "let k a = Linalg.condition_spd a";
  check_rules "fully qualified condition number" [ "R14" ] ~path:"lib/dataio/scratch.ml"
    "let k a = Numerics.Linalg.condition_spd a";
  check_rules "runs test outside the quality layers" [ "R14" ] ~path:"lib/robust/scratch.ml"
    "let z r = Stats.runs_z r";
  check_rules "normality test, fully qualified" [ "R14" ] ~path:"lib/spline/scratch.ml"
    "let z r = Numerics.Stats.normality_z r";
  check_rules "bare reference is caught like an application" [ "R14" ]
    ~path:"lib/optimize/scratch.ml" "let f = Stats.moment_z"

let test_r14_factorization_positive () =
  check_rules "raw eigensolver call from lib/core" [ "R14" ] ~path:"lib/core/scratch.ml"
    "let e a = Linalg.jacobi_eigen a";
  check_rules "fully qualified generalized eigendecomposition" [ "R14" ]
    ~path:"lib/core/scratch.ml" "let e s o = Numerics.Linalg.generalized_eigen_spd s o";
  check_rules "triangular substitution outside the factorization layers" [ "R14" ]
    ~path:"lib/cellpop/scratch.ml" "let s l b = Linalg.lower_solve l b";
  check_rules "bare reference to the back substitution" [ "R14" ]
    ~path:"lib/robust/scratch.ml" "let f = Linalg.lower_transpose_solve"

let test_r14_factorization_negative () =
  check_rules "lib/optimize wraps the eigensolver" [] ~path:"lib/optimize/scratch.ml"
    "let e s o = Linalg.generalized_eigen_spd s o";
  check_rules "lib/numerics implements the decompositions" []
    ~path:"lib/numerics/scratch.ml" "let e a = jacobi_eigen a";
  check_rules "factorization clause is lib-only" [] ~path:"test/scratch.ml"
    "let e a = Linalg.jacobi_eigen a";
  check_rules "cholesky itself stays available to lib/core" [] ~path:"lib/core/scratch.ml"
    "let c a = Linalg.cholesky_factor a"

let test_r14_negative () =
  check_rules "lib/numerics owns the statistic kernels" [] ~path:"lib/numerics/scratch.ml"
    "let z r = runs_z r\nlet k a = condition_spd a";
  check_rules "lib/core assembles quality records" [] ~path:"lib/core/scratch.ml"
    "let z r = Stats.runs_z r";
  check_rules "R14 is lib-only: the CLI renders via Quality" [] ~path:"bin/scratch.ml"
    "let k a = Numerics.Linalg.condition_spd a";
  check_rules "other Stats functions are fine anywhere" [] ~path:"lib/robust/scratch.ml"
    "let m r = Stats.mean r";
  check_rules "a suppression with a reason still works" [] ~path:"lib/robust/scratch.ml"
    "let z r = Stats.runs_z r (* lint: allow R14 -- doc example, not a reimplementation *)"

(* Suppressions and R0. *)

let test_suppress_scan_and_cover () =
  let src = "let a = 1\n(* lint: allow r2, R10 -- two rules\n   over two lines *)\nlet b = 2\n" in
  match Analysis.Suppress.scan src with
  | [ t ], [] ->
    Alcotest.(check (list string)) "rule ids normalized, in order" [ "R2"; "R10" ]
      t.Analysis.Suppress.rules;
    Alcotest.(check string) "reason joined across lines" "two rules over two lines"
      t.Analysis.Suppress.reason;
    Alcotest.(check (pair int int)) "spans the comment's lines" (2, 3)
      (t.Analysis.Suppress.first_line, t.Analysis.Suppress.last_line);
    List.iter
      (fun (rule, line, expected) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s on line %d" rule line)
          expected
          (Analysis.Suppress.covers t ~rule ~line))
      [
        ("R2", 1, false); ("R2", 2, true); ("R10", 3, true); ("R2", 4, true);
        ("R2", 5, false); ("R4", 3, false);
      ]
  | ts, bad ->
    Alcotest.failf "expected one suppression, got %d (and %d malformed)" (List.length ts)
      (List.length bad)

let test_suppress_scan_malformed () =
  let src =
    "let a = 1 (* lint: allow *)\n\
     let b = 2 (* lint: allow R99 -- nope *)\n\
     let c = 3 (* lint: allow R3 *)\n"
  in
  let ts, bad = Analysis.Suppress.scan src in
  Alcotest.(check int) "nothing malformed suppresses" 0 (List.length ts);
  Alcotest.(check (list int)) "each malformed comment reported at its line" [ 1; 2; 3 ]
    (List.map (fun (m : Analysis.Suppress.malformed) -> m.line) bad);
  check_true "a missing reason is named as such"
    (contains ~needle:"no reason" (List.nth bad 2).Analysis.Suppress.why)

let test_suppression_trailing () =
  check_rules "trailing suppression silences the rule" [] ~path:"lib/scratch.ml"
    "let f x = x = 0.0 (* lint: allow R1 -- operands proven NaN-free upstream *)"

let test_suppression_above () =
  check_rules "comment-above suppression covers the next line" [] ~path:"lib/scratch.ml"
    "(* lint: allow R1 -- operands proven NaN-free upstream *)\nlet f x = x = 0.0"

let test_suppression_wrong_rule () =
  check_rules "suppressing a different rule does not silence R1" [ "R1" ]
    ~path:"lib/scratch.ml"
    "let f x = x = 0.0 (* lint: allow R3 -- wrong rule on purpose *)"

let test_suppression_malformed_no_rule () =
  check_rules "marker without a rule id is R0 and suppresses nothing" [ "R0"; "R1" ]
    ~path:"lib/scratch.ml" "let f x = x = 0.0 (* lint: allow -- no rule named *)"

let test_suppression_malformed_no_reason () =
  check_rules "marker without a reason is R0 and suppresses nothing" [ "R0"; "R1" ]
    ~path:"lib/scratch.ml" "let f x = x = 0.0 (* lint: allow R1 *)"

let test_marker_in_string_is_not_a_suppression () =
  check_rules "marker inside a string literal is inert" [ "R1" ] ~path:"lib/scratch.ml"
    "let doc = \"(* lint: allow R1 -- not a comment *)\"\nlet f x = x = 0.0"

(* CLI-level behaviors exercised through the library API. *)

let test_disable () =
  check_rules "--disable drops the rule" [] ~disabled:[ "R1" ] ~path:"lib/scratch.ml"
    "let f x = x = 0.0";
  check_rules "disable is case-insensitive" [] ~disabled:[ "r1" ] ~path:"lib/scratch.ml"
    "let f x = x = 0.0";
  check_rules "disabling one rule keeps the others" [ "R2" ] ~disabled:[ "R1" ]
    ~path:"lib/scratch.ml" "let f g = try Float.equal (g ()) 0.0 with _ -> false"

let test_json_round_trip () =
  let findings = lint ~path:"lib/scratch.ml" "let f x = x = 0.0" in
  let json = Analysis.Finding.list_to_json findings in
  check_true "json carries the rule" (contains ~needle:"\"rule\":\"R1\"" json);
  check_true "json carries the line" (contains ~needle:"\"line\":1" json);
  check_true "json carries the file" (contains ~needle:"\"file\":\"lib/scratch.ml\"" json);
  Alcotest.(check string) "empty findings render as []" "[]"
    (Analysis.Finding.list_to_json [])

let test_json_escaping () =
  let f =
    {
      Analysis.Finding.file = "lib/a\"b.ml";
      line = 1;
      col = 1;
      rule = "R1";
      message = "tab\there";
      hint = "back\\slash";
    }
  in
  let json = Analysis.Finding.list_to_json [ f ] in
  check_true "quote escaped" (contains ~needle:"lib/a\\\"b.ml" json);
  check_true "tab escaped" (contains ~needle:"tab\\there" json);
  check_true "backslash escaped" (contains ~needle:"back\\\\slash" json)

let test_parse_error () =
  match Analysis.Lint.lint_source ~path:"lib/scratch.ml" "let let = =" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* [Lint.run] scopes by the directories a file sits in: a temp
   tree with a lib/ segment gets the lib-only rules. *)
let test_run_scopes_by_directory () =
  let root = Filename.temp_dir "deconv_lint_test" "" in
  let dir = Filename.concat (Filename.concat root "lib") "fake" in
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "scratch.ml" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "let f g = try g () with _ -> 0\n");
  let result = Analysis.Lint.run [ root ] in
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat root "lib");
  Sys.rmdir root;
  List.iter (fun (p, m) -> Alcotest.failf "run error on %s: %s" p m) result.Analysis.Lint.errors;
  match result.Analysis.Lint.findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "R2" f.Analysis.Finding.rule;
    Alcotest.(check string) "reported under its path" path f.Analysis.Finding.file
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* [collect_files] keeps .ml/.mli sources in sorted order and skips
   _build and dot-directories. *)
let test_collect_files () =
  let root = Filename.temp_dir "deconv_lint_collect" "" in
  let sub name = Filename.concat root name in
  List.iter (fun d -> Sys.mkdir (sub d) 0o755) [ "b"; "_build"; ".git" ];
  let files =
    [ "b/z.ml"; "b/a.mli"; "notes.txt"; "top.ml"; "_build/gen.ml"; ".git/hook.ml" ]
  in
  List.iter
    (fun f -> Out_channel.with_open_bin (sub f) (fun oc -> Out_channel.output_string oc "let x = 1\n"))
    files;
  let result = Analysis.Lint.collect_files [ root ] in
  List.iter (fun f -> Sys.remove (sub f)) files;
  List.iter (fun d -> Sys.rmdir (sub d)) [ "b"; "_build"; ".git" ];
  Sys.rmdir root;
  match result with
  | Ok got ->
    Alcotest.(check (list string)) "sources only, sorted, build and dot dirs skipped"
      (List.map sub [ "b/a.mli"; "b/z.ml"; "top.ml" ])
      got
  | Error msg -> Alcotest.failf "collect_files failed: %s" msg

let test_collect_files_missing () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "deconv_lint_no_such_dir" in
  match Analysis.Lint.collect_files [ missing ] with
  | Error _ -> ()
  | Ok files -> Alcotest.failf "expected an error, got %d files" (List.length files)

let test_normalize_id () =
  Alcotest.(check (option string)) "lowercase id" (Some "R4") (Analysis.Rules.normalize_id "r4");
  Alcotest.(check (option string)) "surrounding blanks" (Some "R15")
    (Analysis.Rules.normalize_id " R15 ");
  Alcotest.(check (option string)) "unknown id" None (Analysis.Rules.normalize_id "R99");
  Alcotest.(check (option string)) "not a rule id" None (Analysis.Rules.normalize_id "lint")

let test_libpath () =
  Alcotest.(check (list string)) "empty and . segments dropped" [ "lib"; "core"; "a.ml" ]
    (Analysis.Libpath.segments "./lib//core/./a.ml");
  check_true "a lib/ file" (Analysis.Libpath.in_lib "lib/core/solver.ml");
  check_true "a nested lib/ directory" (Analysis.Libpath.in_lib "/tmp/x/lib/fake/a.ml");
  check_true "a file named lib is not under lib/"
    (not (Analysis.Libpath.in_lib "test/lib.ml"));
  check_true "a lib/ directory with no file below" (not (Analysis.Libpath.in_lib "src/lib"));
  check_true "bin/ is not lib" (not (Analysis.Libpath.in_lib "bin/main.ml"))

(* --list-rules renders each confined rule's scope from the rows the
   walker enforces. *)
let test_scope_text () =
  let scope id =
    match List.find_opt (fun (r : Analysis.Rules.t) -> String.equal r.Analysis.Rules.id id) Analysis.Rules.all with
    | Some r -> Analysis.Lint.scope_text r
    | None -> Alcotest.failf "unknown rule %s" id
  in
  List.iter
    (fun (r : Analysis.Rules.t) ->
      check_true (r.Analysis.Rules.id ^ " has a scope")
        (String.length (Analysis.Lint.scope_text r) > 0))
    Analysis.Rules.all;
  check_true "R4 names its exempt file" (contains ~needle:"lib/cellpop/params.ml" (scope "R4"));
  check_true "R14 names the statistics clause" (contains ~needle:"lib/core/" (scope "R14"));
  check_true "R14 names the factorization clause"
    (contains ~needle:"lib/optimize/" (scope "R14"));
  Alcotest.(check string) "R8" "everywhere except lib/parallel/ and lib/obs/" (scope "R8");
  Alcotest.(check string) "R9" "lib/ only, except lib/dataio/atomic_file.ml" (scope "R9")

(* Regression: the repository's own library tree lints clean. Tests run in
   _build/default/test, so the (copied) sources live one directory up. *)
let test_repo_tree_is_clean () =
  let root p = Filename.concat Filename.parent_dir_name p in
  let paths = List.filter (fun p -> Sys.file_exists (root p)) [ "lib"; "bin"; "bench" ] in
  if paths = [] then ()
  else begin
    let result = Analysis.Lint.run (List.map root paths) in
    List.iter
      (fun (p, msg) -> Alcotest.failf "lint error on %s: %s" p msg)
      result.Analysis.Lint.errors;
    match result.Analysis.Lint.findings with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "repo tree has %d finding(s), first: %s"
        (List.length result.Analysis.Lint.findings)
        (Analysis.Finding.to_text f)
  end

(* ---------------- R15: exported values with no user ---------------- *)

(* A two-value library module: [used] has a caller in another library
   file, [unused] is the export under test. *)
let r15_lib =
  [
    ("lib/numerics/kern.ml", "let used x = x\nlet unused x = x + 1\n");
    ("lib/numerics/kern.mli", "val used : int -> int\nval unused : int -> int\n");
    ("lib/core/caller.ml", "let go x = Numerics.Kern.used x\n");
  ]

let r15_findings sources =
  let r = Analysis.Policy.check_sources sources in
  List.iter (fun (p, m) -> Alcotest.failf "check error on %s: %s" p m) r.Analysis.Policy.errors;
  List.filter (fun f -> String.equal f.Analysis.Finding.rule "R15") r.Analysis.Policy.findings

let test_r15_unused_export () =
  match r15_findings r15_lib with
  | [ f ] ->
    Alcotest.(check string) "anchored at the .mli" "lib/numerics/kern.mli" f.Analysis.Finding.file;
    Alcotest.(check int) "at the val's line" 2 f.Analysis.Finding.line;
    check_true "names the value" (contains ~needle:"Numerics.Kern.unused" f.Analysis.Finding.message)
  | fs -> Alcotest.failf "expected one R15 finding, got %d" (List.length fs)

let test_r15_bin_use_clears () =
  let user = ("bin/main.ml", "let () =\n  print_int (Numerics.Kern.unused 1)\n") in
  Alcotest.(check int) "a let () body is a use" 0 (List.length (r15_findings (user :: r15_lib)))

let test_r15_module_level_use_clears () =
  (* A module-level expression in a user tree, with the module opened. *)
  let user = ("examples/demo.ml", "open Numerics\n;;\nignore (Kern.unused 2)\n") in
  Alcotest.(check int) "a module-level expression is a use" 0
    (List.length (r15_findings (user :: r15_lib)))

let test_r15_test_use_does_not_clear () =
  let test_file = ("test/test_kern.ml", "let () = ignore (Numerics.Kern.unused 1)\n") in
  Alcotest.(check int) "tests are not users" 1 (List.length (r15_findings (test_file :: r15_lib)))

let test_r15_own_module_use_does_not_clear () =
  let own =
    ("lib/numerics/kern.ml", "let unused x = x + 1\nlet used x = unused x\n")
  in
  Alcotest.(check int) "a use inside its own .ml is not a user" 1
    (List.length
       (r15_findings (own :: List.filter (fun (p, _) -> not (String.equal p (fst own))) r15_lib)))

let test_r15_suppression () =
  let mli reason =
    ( "lib/numerics/kern.mli",
      Printf.sprintf "val used : int -> int\n(* lint: allow R15%s *)\nval unused : int -> int\n"
        reason )
  in
  let with_mli m = m :: List.filter (fun (p, _) -> not (String.equal p "lib/numerics/kern.mli")) r15_lib in
  Alcotest.(check int) "a suppression with a reason is honoured" 0
    (List.length (r15_findings (with_mli (mli " -- kept for the demo"))));
  Alcotest.(check int) "one without a reason is not" 1 (List.length (r15_findings (with_mli (mli ""))))

let r15_count_with user = List.length (r15_findings (user :: r15_lib))

let test_r15_alias_use_clears () =
  Alcotest.(check int) "a use through a module alias" 0
    (r15_count_with ("bin/main.ml", "module K = Numerics.Kern\nlet () = print_int (K.unused 1)\n"))

let test_r15_local_open_use_clears () =
  Alcotest.(check int) "a use inside M.( ... )" 0
    (r15_count_with ("bin/main.ml", "let () = print_int Numerics.Kern.(unused 2)\n"))

let test_r15_value_reference_clears () =
  Alcotest.(check int) "naming the function without applying it" 0
    (r15_count_with ("perfbench/b.ml", "let f = Numerics.Kern.unused\n"))

let test_r15_sibling_lib_use_clears () =
  Alcotest.(check int) "another lib module is a user" 0
    (r15_count_with ("lib/numerics/other.ml", "let f x = Kern.unused x\n"))

let test_r15_same_name_does_not_clear () =
  Alcotest.(check int) "a user's own value of the same name" 1
    (r15_count_with ("bin/main.ml", "let unused = 3\nlet () = print_int unused\n"));
  Alcotest.(check int) "a local binding shadowing an opened export" 1
    (r15_count_with
       ("bin/main.ml", "open Numerics.Kern\nlet () = let unused = 1 in print_int unused\n"))

let test_r15_nested_signature () =
  let lib =
    [
      ("lib/numerics/kern.ml", "module Inner = struct let deep x = x end\n");
      ("lib/numerics/kern.mli", "module Inner : sig\n  val deep : int -> int\nend\n");
    ]
  in
  (match r15_findings lib with
  | [ f ] ->
    check_true "names the nested value" (contains ~needle:"Numerics.Kern.Inner.deep" f.Analysis.Finding.message);
    Alcotest.(check int) "at the nested val's line" 2 f.Analysis.Finding.line
  | fs -> Alcotest.failf "expected one R15 finding, got %d" (List.length fs));
  Alcotest.(check int) "a qualified use clears it" 0
    (List.length
       (r15_findings (("bin/main.ml", "let () = print_int (Numerics.Kern.Inner.deep 1)\n") :: lib)))

(* Feeding the user trees in changes no R10-R12 finding: their definitions
   are not roots, their fan-outs are not audited tasks. *)
let test_r15_users_leave_r10_r12_alone () =
  let lib =
    [
      ("lib/core/pipeline.ml", "let run () = failwith \"boom\"\n");
      ("lib/numerics/kern.ml", "let noisy () = Random.float 1.0\n");
      ( "lib/core/batch.ml",
        "let go () = Parallel.parallel_map ~n:4 (fun i -> if i = 2 then failwith \"x\" else i)\n" );
    ]
  in
  let users =
    [
      ("bin/main.ml", "let helper () = failwith \"cli\"\nlet () = helper ()\n");
      ("bench/main.ml", "let fan () = Parallel.parallel_map ~n:2 (fun i -> Random.int (i + 1))\n");
    ]
  in
  let non_r15 sources =
    List.filter_map
      (fun f ->
        if String.equal f.Analysis.Finding.rule "R15" then None
        else Some (Analysis.Finding.to_text f))
      (Analysis.Policy.check_sources sources).Analysis.Policy.findings
  in
  let alone = non_r15 lib in
  check_true "the fixture has R10-R12 findings" (List.length alone >= 3);
  Alcotest.(check (list string)) "same findings with the users fed in" alone (non_r15 (lib @ users))

let tests =
  [
    ( "lint-rules",
      [
        case "r1 positive" test_r1_positive;
        case "r1 negative" test_r1_negative;
        case "r1 location in text output" test_r1_location;
        case "r2 positive" test_r2_positive;
        case "r2 negative" test_r2_negative;
        case "r3 positive" test_r3_positive;
        case "r3 negative" test_r3_negative;
        case "r4 positive" test_r4_positive;
        case "r4 negative" test_r4_negative;
        case "r5 positive" test_r5_positive;
        case "r5 negative" test_r5_negative;
        case "r6 positive" test_r6_positive;
        case "r6 negative" test_r6_negative;
        case "r7 positive" test_r7_positive;
        case "r7 negative" test_r7_negative;
        case "r8 positive" test_r8_positive;
        case "r8 negative" test_r8_negative;
        case "r9 positive" test_r9_positive;
        case "r9 negative" test_r9_negative;
        case "r13 positive" test_r13_positive;
        case "r13 negative" test_r13_negative;
        case "r14 positive" test_r14_positive;
        case "r14 negative" test_r14_negative;
        case "r14 factorization positive" test_r14_factorization_positive;
        case "r14 factorization negative" test_r14_factorization_negative;
      ] );
    ( "lint-suppress",
      [
        case "trailing comment" test_suppression_trailing;
        case "comment above" test_suppression_above;
        case "wrong rule id" test_suppression_wrong_rule;
        case "malformed: no rule" test_suppression_malformed_no_rule;
        case "malformed: no reason" test_suppression_malformed_no_reason;
        case "marker in string literal" test_marker_in_string_is_not_a_suppression;
        case "scan fields and line coverage" test_suppress_scan_and_cover;
        case "scan reports malformed comments" test_suppress_scan_malformed;
      ] );
    ( "lint-cli",
      [
        case "disable" test_disable;
        case "json round trip" test_json_round_trip;
        case "json escaping" test_json_escaping;
        case "parse error" test_parse_error;
        case "run scopes by directory" test_run_scopes_by_directory;
        case "collect files" test_collect_files;
        case "collect files: missing path" test_collect_files_missing;
        case "normalize rule ids" test_normalize_id;
        case "lib path segments" test_libpath;
        case "scope text from the confinement rows" test_scope_text;
        case "repo tree lints clean" test_repo_tree_is_clean;
      ] );
    ( "lint-unused-export",
      [
        case "export with no user" test_r15_unused_export;
        case "bin use in let () clears it" test_r15_bin_use_clears;
        case "module-level use clears it" test_r15_module_level_use_clears;
        case "test-only use does not clear it" test_r15_test_use_does_not_clear;
        case "own-module use does not clear it" test_r15_own_module_use_does_not_clear;
        case "suppression with a reason" test_r15_suppression;
        case "users leave R10-R12 unchanged" test_r15_users_leave_r10_r12_alone;
        case "module alias use clears it" test_r15_alias_use_clears;
        case "local open use clears it" test_r15_local_open_use_clears;
        case "unapplied reference clears it" test_r15_value_reference_clears;
        case "sibling lib use clears it" test_r15_sibling_lib_use_clears;
        case "same name elsewhere does not clear it" test_r15_same_name_does_not_clear;
        case "nested module signature" test_r15_nested_signature;
      ] );
  ]
