(* Tests for the interprocedural checker (Callgraph + Effects + Policy,
   rules R10-R12). Offending code lives inside string literals handed to
   [Policy.check_sources], so this file itself stays lint-clean. *)

open Testutil

let build sources =
  let graph, errors = Analysis.Callgraph.build sources in
  List.iter (fun (p, m) -> Alcotest.failf "parse error in %s: %s" p m) errors;
  graph

let ids graph = List.map (fun d -> d.Analysis.Callgraph.id) (Analysis.Callgraph.defs graph)

let caps_of sources id =
  let graph = build sources in
  let eff = Analysis.Effects.analyze graph in
  match eff.Analysis.Effects.caps_of id with
  | Some caps -> caps
  | None -> Alcotest.failf "no capabilities inferred for %s" id

let raised caps =
  List.map fst (Analysis.Effects.Names.bindings caps.Analysis.Effects.raises)

let check_raises msg expected caps =
  Alcotest.(check (list string)) msg (List.sort String.compare expected) (raised caps)

let check_result ?disabled ?roots sources =
  Analysis.Policy.check_sources ?disabled ?roots sources

let rules_of (r : Analysis.Policy.check_result) =
  List.sort String.compare
    (List.map (fun f -> f.Analysis.Finding.rule) r.Analysis.Policy.findings)

(* ---------------- callgraph construction ---------------- *)

let test_qualification () =
  let graph =
    build
      [
        ("lib/numerics/linalg.ml", "let solve x = x");
        ("lib/core/solver.ml", "let go x = x");
        ("lib/parallel/parallel.ml", "let jobs () = 1");
        ("test/scratch.ml", "let t = 1");
      ]
  in
  let have = ids graph in
  List.iter
    (fun id -> check_true (id ^ " is defined") (List.mem id have))
    [ "Numerics.Linalg.solve"; "Deconv.Solver.go"; "Parallel.jobs"; "Scratch.t" ]

let test_mli_exports () =
  let graph =
    build
      [
        ("lib/numerics/linalg.ml", "let solve x = x\nlet internal_pivot x = x");
        ("lib/numerics/linalg.mli", "val solve : 'a -> 'a");
      ]
  in
  let public id =
    match Analysis.Callgraph.find graph id with
    | Some d -> d.Analysis.Callgraph.public
    | None -> Alcotest.failf "%s not in graph" id
  in
  check_true "exported val is public" (public "Numerics.Linalg.solve");
  check_true "unexported val is private"
    (not (public "Numerics.Linalg.internal_pivot"))

let test_functor_body_defs () =
  let graph =
    build
      [
        ( "lib/core/maker.ml",
          "module Make (X : sig val n : int end) = struct\n\
          \  let boom () = failwith \"functor\"\n\
           end" );
      ]
  in
  check_true "functor-body def is collected"
    (Option.is_some (Analysis.Callgraph.find graph "Deconv.Maker.Make.boom"))

(* ---------------- resolution helpers ---------------- *)

let lid dotted =
  match String.split_on_char '.' dotted with
  | [] -> Alcotest.failf "empty identifier"
  | head :: rest ->
    List.fold_left (fun l s -> Longident.Ldot (l, s)) (Longident.Lident head) rest

let scope_or_fail graph id =
  match Analysis.Callgraph.scope_of graph id with
  | Some scope -> scope
  | None -> Alcotest.failf "no scope recorded for %s" id

let test_flatten_lid () =
  Alcotest.(check (list string)) "dotted path splits into its parts"
    [ "Numerics"; "Linalg"; "solve" ]
    (Analysis.Callgraph.flatten_lid (lid "Numerics.Linalg.solve"));
  Alcotest.(check (list string)) "a bare name is one part" [ "go" ]
    (Analysis.Callgraph.flatten_lid (lid "go"));
  let applied =
    Longident.Ldot (Longident.Lapply (lid "Make", lid "Arg"), "run")
  in
  Alcotest.(check (list string)) "a functor application keeps the functor"
    [ "Make"; "run" ]
    (Analysis.Callgraph.flatten_lid applied)

let test_pattern_vars () =
  let pattern =
    Parse.pattern
      (Lexing.from_string "((a, Some b), { x = c; _ }, ([| d |] | [| _; d |]) as e)")
  in
  Alcotest.(check (list string)) "every bound variable, or-branches included"
    [ "a"; "b"; "c"; "d"; "d"; "e" ]
    (List.sort String.compare (Analysis.Callgraph.pattern_vars pattern));
  Alcotest.(check (list string)) "wildcards and constants bind nothing" []
    (Analysis.Callgraph.pattern_vars (Parse.pattern (Lexing.from_string "(_, 1, None)")))

let test_scope_and_resolve () =
  let graph =
    build
      [
        ("lib/numerics/linalg.ml", "let solve x = x");
        ("lib/core/solver.ml", "open Numerics\nlet helper x = x\nlet go x = helper (Linalg.solve x)");
      ]
  in
  check_true "an unknown id has no scope"
    (Option.is_none (Analysis.Callgraph.scope_of graph "Deconv.Solver.missing"));
  let scope = scope_or_fail graph "Deconv.Solver.go" in
  let no_locals _ = false in
  let resolve ?(locals = no_locals) name =
    Analysis.Callgraph.resolve graph scope ~locals (lid name)
  in
  check_true "a sibling resolves to its definition"
    (resolve "helper" = Analysis.Callgraph.Def "Deconv.Solver.helper");
  check_true "an opened module's value resolves"
    (resolve "Linalg.solve" = Analysis.Callgraph.Def "Numerics.Linalg.solve");
  check_true "a local binding shadows the sibling"
    (resolve ~locals:(String.equal "helper") "helper"
    = Analysis.Callgraph.External "helper");
  check_true "an unknown name stays external with its dotted spelling"
    (resolve "List.map" = Analysis.Callgraph.External "List.map")

let test_exception_name () =
  let graph =
    build
      [
        ("lib/robust/error.ml", "exception Error of string\nlet fail s = raise (Error s)");
        ("lib/core/solver.ml", "let go () = raise (Robust.Error.Error \"x\")");
      ]
  in
  let inside = scope_or_fail graph "Robust.Error.fail" in
  let outside = scope_or_fail graph "Deconv.Solver.go" in
  Alcotest.(check string) "bare constructor inside its module" Analysis.Effects.robust_error
    (Analysis.Callgraph.exception_name graph inside (lid "Error"));
  Alcotest.(check string) "qualified constructor from another library"
    Analysis.Effects.robust_error
    (Analysis.Callgraph.exception_name graph outside (lid "Robust.Error.Error"));
  Alcotest.(check string) "an undeclared exception keeps its spelling" "Stdlib.Exit"
    (Analysis.Callgraph.exception_name graph outside (lid "Stdlib.Exit"))

(* ---------------- effect propagation ---------------- *)

let test_dynamic_raise () =
  let sources =
    [
      ( "lib/core/a.ml",
        "let rethrow e = raise e\n\
         let caught f = try rethrow (f ()) with _ -> 0" );
    ]
  in
  check_raises "raising a computed exception value is tracked as dynamic"
    [ Analysis.Effects.dynamic_raise ]
    (caps_of sources "Deconv.A.rethrow");
  check_raises "a catch-all masks the dynamic raise" []
    (caps_of sources "Deconv.A.caught")

let test_direct_raise_and_intrinsics () =
  let caps =
    caps_of [ ("lib/core/a.ml", "let f () = failwith \"x\"") ] "Deconv.A.f"
  in
  check_raises "failwith maps to Failure" [ "Failure" ] caps;
  let caps =
    caps_of [ ("lib/core/a.ml", "let f () = invalid_arg \"x\"") ] "Deconv.A.f"
  in
  check_raises "invalid_arg maps to Invalid_argument" [ "Invalid_argument" ] caps

let test_open_resolution () =
  let sources =
    [
      ( "lib/numerics/linalg.ml",
        "exception Singular\nlet solve b = if b then raise Singular else 0" );
      ("lib/core/solver.ml", "open Numerics\nlet go b = Linalg.solve b");
    ]
  in
  check_raises "exception flows through an open"
    [ "Numerics.Linalg.Singular" ]
    (caps_of sources "Deconv.Solver.go")

let test_sibling_resolution () =
  (* Within one wrapped library a sibling module is referenced bare:
     [Linalg.solve] from lib/numerics/ridge.ml means Numerics.Linalg.solve
     with no open in sight. *)
  let sources =
    [
      ( "lib/numerics/linalg.ml",
        "exception Singular\nlet solve b = if b then raise Singular else 0" );
      ("lib/numerics/ridge.ml", "let fit b = Linalg.solve b");
    ]
  in
  check_raises "intra-library sibling reference resolves"
    [ "Numerics.Linalg.Singular" ]
    (caps_of sources "Numerics.Ridge.fit")

let test_alias_resolution () =
  let sources =
    [
      ( "lib/numerics/linalg.ml",
        "exception Singular\nlet solve b = if b then raise Singular else 0" );
      ( "lib/core/solver.ml",
        "open Numerics\nmodule L = Linalg\nlet go b = L.solve b" );
    ]
  in
  check_raises "module alias resolves through the enclosing open"
    [ "Numerics.Linalg.Singular" ]
    (caps_of sources "Deconv.Solver.go")

let test_include_resolution () =
  let sources =
    [
      ("lib/core/base.ml", "let helper () = failwith \"deep\"");
      ("lib/core/solver.ml", "include Base\nlet go () = helper ()");
    ]
  in
  check_raises "identifier reaches through an include" [ "Failure" ]
    (caps_of sources "Deconv.Solver.go")

let test_local_shadowing () =
  let sources =
    [
      ( "lib/core/a.ml",
        "let risky () = failwith \"x\"\n\
         let safe risky = risky ()\n\
         let unsafe () = risky ()" );
    ]
  in
  check_raises "parameter shadows the module-level def" []
    (caps_of sources "Deconv.A.safe");
  check_raises "unshadowed reference still carries the effect" [ "Failure" ]
    (caps_of sources "Deconv.A.unsafe")

let test_mask_subtracts_caught () =
  let sources =
    [
      ( "lib/core/a.ml",
        "let risky () = failwith \"x\"\n\
         let safe () = try risky () with Failure _ -> 0\n\
         let pass () = try risky () with e -> raise e" );
    ]
  in
  check_raises "try/with subtracts the caught constructor" []
    (caps_of sources "Deconv.A.safe");
  check_raises "a re-raising catch-all subtracts nothing" [ "Failure" ]
    (caps_of sources "Deconv.A.pass")

let test_mutual_recursion_fixpoint () =
  let sources =
    [
      ( "lib/core/a.ml",
        "let rec ping n = if n = 0 then B.boom () else B.pong (n - 1)" );
      ( "lib/core/b.ml",
        "let boom () = failwith \"bottom\"\nlet pong n = A.ping n" );
    ]
  in
  check_raises "effect crosses the two-file cycle" [ "Failure" ]
    (caps_of sources "Deconv.A.ping");
  check_raises "and reaches the other direction" [ "Failure" ]
    (caps_of sources "Deconv.B.pong")

(* ---------------- policy rules ---------------- *)

let test_r10_positive_and_negative () =
  (* A file outside lib/ makes every public def a root. *)
  let bad = [ ("scratch.ml", "let go () = failwith \"boom\"") ] in
  Alcotest.(check (list string)) "bare failwith escapes a root" [ "R10" ]
    (rules_of (check_result bad));
  let good =
    [
      ( "scratch.ml",
        "let go () =\n\
        \  Robust.Error.raise_error\n\
        \    (Robust.Error.Unexpected { description = \"typed\" })" );
    ]
  in
  Alcotest.(check (list string)) "Robust.Error crosses the boundary freely" []
    (rules_of (check_result good))

let test_r10_transitive () =
  let sources =
    [
      ("lib/numerics/deep.ml", "let kaboom () = failwith \"deep\"");
      ("scratch.ml", "let go () = Numerics.Deep.kaboom ()");
    ]
  in
  let r = check_result sources in
  match r.Analysis.Policy.findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "R10" f.Analysis.Finding.rule;
    Alcotest.(check string) "anchored at the raise origin" "lib/numerics/deep.ml"
      f.Analysis.Finding.file
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_r11_task_capabilities () =
  let mutation =
    [
      ( "scratch.ml",
        "let acc = ref 0\n\
         let go () = Parallel.parallel_for ~n:4 (fun i -> acc := !acc + i)" );
    ]
  in
  Alcotest.(check (list string)) "global mutation inside a task" [ "R11" ]
    (rules_of (check_result mutation));
  let rng =
    [ ("scratch.ml", "let go () = Parallel.parallel_map ~n:4 (fun i -> Random.int i)") ]
  in
  Alcotest.(check (list string)) "ambient RNG inside a task" [ "R11" ]
    (rules_of (check_result rng));
  let clean =
    [
      ( "scratch.ml",
        "let go xs = Parallel.parallel_map ~n:4 (fun i -> xs.(i) * 2)" );
    ]
  in
  Alcotest.(check (list string)) "a pure task is silent" []
    (rules_of (check_result clean));
  let local_state =
    [
      ( "scratch.ml",
        "let go () = Parallel.parallel_map ~n:4 (fun i -> let acc = ref 0 in acc := i; !acc)"
      );
    ]
  in
  Alcotest.(check (list string)) "task-local refs are not global state" []
    (rules_of (check_result local_state))

(* Domain.spawn is a fan-out: its body gets the same R11 audit as a pool
   task — the sampler domain in lib/obs is the audited exception. *)
let test_r11_domain_spawn () =
  let spawned_rng =
    [
      ( "scratch.ml",
        "let go () = Domain.spawn (fun () -> Random.float 1.0)" );
    ]
  in
  Alcotest.(check (list string)) "ambient RNG inside a spawned body" [ "R11" ]
    (rules_of (check_result spawned_rng));
  let spawned_mutation =
    [
      ( "scratch.ml",
        "let hits = ref 0\n\
         let go () = Domain.spawn (fun () -> incr hits)" );
    ]
  in
  Alcotest.(check (list string)) "global mutation inside a spawned body" [ "R11" ]
    (rules_of (check_result spawned_mutation));
  let clean = [ ("scratch.ml", "let go x = Domain.spawn (fun () -> x * 2)") ] in
  Alcotest.(check (list string)) "a pure spawned body is silent" []
    (rules_of (check_result clean));
  let audited =
    [
      ( "lib/obs/sampler.ml",
        "let tick = ref 0\n\
         let go () = Domain.spawn (fun () -> incr tick)" );
    ]
  in
  Alcotest.(check (list string)) "lib/obs spawns are the audited exception" []
    (rules_of (check_result audited))

let test_r12_numeric_core_purity () =
  let impure_rng = [ ("lib/numerics/kern.ml", "let noisy () = Random.float 1.0") ] in
  Alcotest.(check (list string)) "ambient RNG in the numeric core" [ "R12" ]
    (rules_of (check_result impure_rng));
  let impure_clock = [ ("lib/spline/kern.ml", "let t () = Sys.time ()") ] in
  Alcotest.(check (list string)) "raw clock in the numeric core" [ "R12" ]
    (rules_of (check_result impure_clock));
  let impure_io =
    [ ("lib/optimize/kern.ml", "let shout x = print_endline x") ]
  in
  Alcotest.(check (list string)) "IO in the numeric core" [ "R12" ]
    (rules_of (check_result impure_io));
  let pure = [ ("lib/numerics/kern.ml", "let double x = x * 2") ] in
  Alcotest.(check (list string)) "a pure kernel is silent" []
    (rules_of (check_result pure));
  let outside = [ ("lib/dataio/reader.ml", "let t () = Sys.time ()") ] in
  Alcotest.(check (list string)) "R12 scopes to the numeric core only" []
    (rules_of (check_result outside))

let test_check_suppression_and_disable () =
  let src rule_comment =
    [
      ( "scratch.ml",
        Printf.sprintf "let go () =\n  failwith \"boom\" %s" rule_comment );
    ]
  in
  Alcotest.(check (list string)) "an origin-site suppression silences R10" []
    (rules_of (check_result (src "(* lint: allow R10 -- demo of the escape hatch *)")));
  Alcotest.(check (list string)) "a wrong-rule suppression does not" [ "R10" ]
    (rules_of (check_result (src "(* lint: allow R12 -- wrong rule on purpose *)")));
  Alcotest.(check (list string)) "--disable R10 drops the rule" []
    (rules_of
       (check_result ~disabled:[ "r10" ]
          [ ("scratch.ml", "let go () = failwith \"boom\"") ]))

(* The acceptance scenario: a temp file with an un-wrapped failwith inside
   a Parallel task body must be flagged by BOTH R10 and R11 through the
   on-disk driver. *)
let test_seeded_defect_file () =
  let path = Filename.temp_file "deconv_checker_seed" ".ml" in
  let oc = open_out path in
  output_string oc
    "let run () =\n\
    \  Parallel.parallel_map ~n:4 (fun i -> if i = 2 then failwith \"boom\" else i)\n";
  close_out oc;
  let r = Analysis.Policy.check_paths [ path ] in
  Sys.remove path;
  List.iter
    (fun (p, m) -> Alcotest.failf "check_paths error on %s: %s" p m)
    r.Analysis.Policy.errors;
  let rules =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Analysis.Finding.rule) r.Analysis.Policy.findings)
  in
  Alcotest.(check (list string)) "flagged by both rules" [ "R10"; "R11" ] rules

(* Regression: the repository's own lib/ tree is clean under R10-R12 and,
   with the programs that use it read as users, under R15. *)
let test_repo_lib_is_clean () =
  let users = List.map repo_path [ "bin"; "bench"; "examples"; "perfbench" ] in
  let r = Analysis.Policy.check_paths (repo_path "lib" :: users) in
  List.iter (fun (p, m) -> Alcotest.failf "check error on %s: %s" p m) r.Analysis.Policy.errors;
  (match r.Analysis.Policy.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "lib/ has %d unsuppressed finding(s), first: %s"
      (List.length r.Analysis.Policy.findings)
      (Analysis.Finding.to_text f));
  check_true "the graph is not trivially empty" (r.Analysis.Policy.defs > 100)

let test_exports_with_locations () =
  let graph =
    build
      [
        ("lib/numerics/kern.ml", "let a = 1\nmodule M = struct let b = 2 end\n");
        ("lib/numerics/kern.mli", "val a : int\nmodule M : sig\n  val b : int\nend\n");
      ]
  in
  Alcotest.(check (list (pair string int)))
    "every val with its line, nested signatures included"
    [ ("Numerics.Kern.M.b", 3); ("Numerics.Kern.a", 1) ]
    (List.sort compare
       (List.map
          (fun (e : Analysis.Callgraph.export) -> (e.Analysis.Callgraph.value, e.Analysis.Callgraph.line))
          (Analysis.Callgraph.exports graph)))

let test_named_in () =
  let graph, errors =
    Analysis.Callgraph.build
      ~users:[ ("bin/main.ml", "module K = Numerics.Kern\nlet () = ignore (K.scale 2)\n") ]
      [
        ("lib/numerics/kern.ml", "let scale x = 2 * x\n");
        (* a parameter named like the export shadows it *)
        ("lib/core/a.ml", "open Numerics.Kern\nlet f scale = scale + 1\n");
        ("lib/core/b.ml", "open Numerics.Kern\nlet g x = scale x\n");
      ]
  in
  List.iter (fun (p, m) -> Alcotest.failf "parse error in %s: %s" p m) errors;
  Alcotest.(check (list string))
    "files that name the export: a module alias in a user, an open in lib"
    [ "bin/main.ml"; "lib/core/b.ml" ]
    (List.sort String.compare (Analysis.Callgraph.named_in graph "Numerics.Kern.scale"));
  check_true "users add no definitions"
    (not (List.exists (fun d -> String.equal d.Analysis.Callgraph.path "bin/main.ml")
            (Analysis.Callgraph.defs graph)))

let test_user_trees () =
  List.iter
    (fun (path, expected) ->
      Alcotest.(check bool) path expected (Analysis.Libpath.in_user_tree path))
    [
      ("bin/main.ml", true);
      ("../bench/main.ml", true);
      ("/src/repo/examples/quickstart.ml", true);
      ("perfbench/bench.ml", true);
      ("lib/core/solver.ml", false);
      ("lib/bin/helper.ml", false);
      ("test/test_lint.ml", false);
      ("scratch.ml", false);
    ]

(* ---------------- baseline ---------------- *)

let finding ~rule ~file ~message =
  { Analysis.Finding.file; line = 1; col = 1; rule; message; hint = "h" }

let test_baseline_round_trip () =
  let findings =
    [
      finding ~rule:"R10" ~file:"lib/a.ml" ~message:"one";
      finding ~rule:"R11" ~file:"lib/b.ml" ~message:"two";
    ]
  in
  let snapshot = Analysis.Baseline.to_string findings in
  let parsed = Analysis.Baseline.of_string snapshot in
  Alcotest.(check int) "every finding round-trips" 2 (List.length parsed);
  let cmp = Analysis.Baseline.compare_against ~baseline:parsed findings in
  Alcotest.(check int) "no fresh findings against own snapshot" 0
    (List.length cmp.Analysis.Baseline.fresh);
  Alcotest.(check int) "no stale entries either" 0
    (List.length cmp.Analysis.Baseline.stale)

let test_baseline_shrinks () =
  (* Fixing a baselined finding leaves a stale entry: the snapshot must
     shrink, never grow. A new finding is fresh and fails the run. *)
  let old_findings =
    [
      finding ~rule:"R10" ~file:"lib/a.ml" ~message:"legacy escape";
      finding ~rule:"R12" ~file:"lib/numerics/k.ml" ~message:"legacy clock";
    ]
  in
  let baseline =
    Analysis.Baseline.of_string (Analysis.Baseline.to_string old_findings)
  in
  let now =
    [
      finding ~rule:"R10" ~file:"lib/a.ml" ~message:"legacy escape";
      finding ~rule:"R11" ~file:"lib/c.ml" ~message:"brand new";
    ]
  in
  let cmp = Analysis.Baseline.compare_against ~baseline now in
  (match cmp.Analysis.Baseline.fresh with
  | [ f ] -> Alcotest.(check string) "the new finding is fresh" "R11" f.Analysis.Finding.rule
  | fs -> Alcotest.failf "expected one fresh finding, got %d" (List.length fs));
  match cmp.Analysis.Baseline.stale with
  | [ e ] ->
    Alcotest.(check string) "the fixed finding is stale" "R12"
      e.Analysis.Baseline.rule
  | es -> Alcotest.failf "expected one stale entry, got %d" (List.length es)

let test_baseline_ignores_position () =
  let f = finding ~rule:"R10" ~file:"lib/a.ml" ~message:"escape" in
  let baseline =
    Analysis.Baseline.of_string (Analysis.Baseline.to_string [ f ])
  in
  let moved = { f with Analysis.Finding.line = 99; col = 7 } in
  let cmp = Analysis.Baseline.compare_against ~baseline [ moved ] in
  Alcotest.(check int) "a moved finding still matches its entry" 0
    (List.length cmp.Analysis.Baseline.fresh)

(* ---------------- SARIF ---------------- *)

let test_sarif_output () =
  let rules = [ ("R10", "exception escape", "long description") ] in
  let f =
    {
      Analysis.Finding.file = "lib/a.ml";
      line = 12;
      col = 3;
      rule = "R10";
      message = "msg";
      hint = "fix it";
    }
  in
  let sarif = Analysis.Finding.list_to_sarif ~tool:"deconv-lint" ~rules [ f ] in
  List.iter
    (fun needle -> check_true ("sarif contains " ^ needle) (contains ~needle sarif))
    [
      "\"version\": \"2.1.0\"";
      "\"name\": \"deconv-lint\"";
      "\"ruleId\":\"R10\"";
      "\"uri\":\"lib/a.ml\"";
      "\"startLine\":12";
      "\"startColumn\":3";
      "exception escape";
    ];
  let empty = Analysis.Finding.list_to_sarif ~tool:"deconv-lint" ~rules [] in
  check_true "empty run has an empty results array"
    (contains ~needle:"\"results\": []" empty);
  check_true "unreferenced rules are omitted from the driver"
    (not (contains ~needle:"exception escape" empty))

let tests =
  [
    ( "checker-callgraph",
      [
        case "module qualification" test_qualification;
        case "mli exports" test_mli_exports;
        case "exports with locations" test_exports_with_locations;
        case "files naming a definition" test_named_in;
        case "user trees" test_user_trees;
        case "functor body defs" test_functor_body_defs;
        case "flatten_lid" test_flatten_lid;
        case "pattern vars" test_pattern_vars;
        case "scope and resolve" test_scope_and_resolve;
        case "exception name" test_exception_name;
      ] );
    ( "checker-effects",
      [
        case "dynamic raise" test_dynamic_raise;
        case "raising intrinsics" test_direct_raise_and_intrinsics;
        case "open resolution" test_open_resolution;
        case "sibling resolution" test_sibling_resolution;
        case "alias through open" test_alias_resolution;
        case "include resolution" test_include_resolution;
        case "local shadowing" test_local_shadowing;
        case "try/with masking" test_mask_subtracts_caught;
        case "mutual recursion fixpoint" test_mutual_recursion_fixpoint;
      ] );
    ( "checker-policy",
      [
        case "r10 positive and negative" test_r10_positive_and_negative;
        case "r10 transitive origin" test_r10_transitive;
        case "r11 task capabilities" test_r11_task_capabilities;
        case "r11 domain spawn" test_r11_domain_spawn;
        case "r12 numeric-core purity" test_r12_numeric_core_purity;
        case "suppression and disable" test_check_suppression_and_disable;
        case "seeded defect hits R10 and R11" test_seeded_defect_file;
        case "repo lib/ is clean" test_repo_lib_is_clean;
      ] );
    ( "checker-baseline",
      [
        case "round trip" test_baseline_round_trip;
        case "shrink and fresh" test_baseline_shrinks;
        case "position-independent keys" test_baseline_ignores_position;
      ] );
    ("checker-sarif", [ case "sarif 2.1.0 shape" test_sarif_output ]);
  ]
