(* deconv-lint: numerical-safety static analysis for the deconvolution
   codebase. Parses every .ml/.mli under the given paths with
   compiler-libs and enforces the rule registry of Analysis.Rules.

   Two passes:
     deconv-lint [PATH]...        per-file rules R0-R9, R13, R14
     deconv-lint check [PATH]...  whole-program rules R10-R12 (call graph
                                  + effect fixpoint) and R15 (unused
                                  exports); files under bin/, bench/,
                                  examples/ or perfbench/ are read as
                                  users of lib/ only

   --list-rules prints each rule's scope from the same confinement rows
   the per-file walker enforces.

   Exit codes: 0 clean, 1 findings, 2 usage/IO/parse errors. *)

let usage =
  "deconv-lint [check] [OPTIONS] [PATH]...\n\
   Lints .ml/.mli files (recursively for directories). The default pass\n\
   applies the per-file rules R0-R9, R13 and R14; 'deconv-lint check'\n\
   builds the whole-program call graph and applies the interprocedural\n\
   rules R10-R12 and the unused-export rule R15, reading files under bin/,\n\
   bench/, examples/ and perfbench/ as users of lib/ only (default paths:\n\
   lib bin bench examples perfbench). With no PATH, the per-file pass lints\n\
   lib bin bench test examples. Suppress a finding in source with\n\
   '(* lint: allow R_ — reason *)' on, or just above, the offending line.\n\
   Options:"

let print_rules () =
  List.iter
    (fun (r : Analysis.Rules.t) ->
      Printf.printf "%s (%s; %s)\n    %s\n" r.Analysis.Rules.id r.Analysis.Rules.title
        (Analysis.Lint.scope_text r)
        r.Analysis.Rules.description)
    Analysis.Rules.all

let rules_meta =
  List.map
    (fun (r : Analysis.Rules.t) ->
      (r.Analysis.Rules.id, r.Analysis.Rules.title, r.Analysis.Rules.description))
    Analysis.Rules.all

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let write_file path contents =
  match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let () =
  let format = ref "text" in
  let list_rules = ref false in
  let disabled = ref [] in
  let paths = ref [] in
  let baseline_file = ref "" in
  let write_baseline = ref false in
  let spec =
    [
      ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun f -> format := f),
        " output format (default text)" );
      ("--json", Arg.Unit (fun () -> format := "json"), " shorthand for --format json");
      ( "--disable",
        Arg.String (fun r -> disabled := r :: !disabled),
        "RULE disable a rule id for this run (repeatable)" );
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE only findings absent from this snapshot fail the run" );
      ( "--write-baseline",
        Arg.Set write_baseline,
        " rewrite the --baseline file from this run's findings and exit 0" );
      ("--list-rules", Arg.Set list_rules, " print the rule registry and exit");
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    print_rules ();
    exit 0
  end;
  if !write_baseline && String.equal !baseline_file "" then begin
    prerr_endline "deconv-lint: --write-baseline requires --baseline FILE";
    exit 2
  end;
  let unknown =
    List.filter (fun r -> Option.is_none (Analysis.Rules.normalize_id r)) !disabled
  in
  if unknown <> [] then begin
    Printf.eprintf "deconv-lint: unknown rule id(s) in --disable: %s\n"
      (String.concat ", " unknown);
    exit 2
  end;
  let check_mode, paths =
    match List.rev !paths with
    | "check" :: rest ->
      ( true,
        match rest with
        | [] -> List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]
        | ps -> ps )
    | [] -> (false, [ "lib"; "bin"; "bench"; "test"; "examples" ])
    | ps -> (false, ps)
  in
  let findings, errors, summary_of =
    if check_mode then begin
      let r = Analysis.Policy.check_paths ~disabled:!disabled paths in
      let summary_of n =
        Printf.sprintf "%d finding(s); %d def(s) in %d file(s), fixpoint in %d sweep(s)"
          n r.Analysis.Policy.defs r.Analysis.Policy.files r.Analysis.Policy.iterations
      in
      (r.Analysis.Policy.findings, r.Analysis.Policy.errors, summary_of)
    end
    else begin
      let r = Analysis.Lint.run ~disabled:!disabled paths in
      let summary_of n =
        Printf.sprintf "%d finding(s) in %d file(s)" n r.Analysis.Lint.files
      in
      (r.Analysis.Lint.findings, r.Analysis.Lint.errors, summary_of)
    end
  in
  List.iter
    (fun (path, msg) ->
      if String.equal path "" then Printf.eprintf "deconv-lint: %s\n" msg
      else Printf.eprintf "deconv-lint: %s: %s\n" path msg)
    errors;
  if errors <> [] then exit 2;
  (* Baseline handling: --write-baseline snapshots this run; --baseline
     alone fails only on findings absent from the snapshot, and nags
     about stale entries so the file ratchets down over time. *)
  if !write_baseline then begin
    match write_file !baseline_file (Analysis.Baseline.to_string findings) with
    | Ok () ->
      Printf.eprintf "deconv-lint: wrote %d baseline entr%s to %s\n"
        (List.length findings)
        (if List.length findings = 1 then "y" else "ies")
        !baseline_file;
      exit 0
    | Error msg ->
      Printf.eprintf "deconv-lint: %s: %s\n" !baseline_file msg;
      exit 2
  end;
  let findings, stale =
    if String.equal !baseline_file "" then (findings, [])
    else
      match read_file !baseline_file with
      | Error msg ->
        Printf.eprintf "deconv-lint: %s: %s\n" !baseline_file msg;
        exit 2
      | Ok contents ->
        let baseline = Analysis.Baseline.of_string contents in
        let cmp = Analysis.Baseline.compare_against ~baseline findings in
        (cmp.Analysis.Baseline.fresh, cmp.Analysis.Baseline.stale)
  in
  List.iter
    (fun (e : Analysis.Baseline.entry) ->
      Printf.eprintf
        "deconv-lint: stale baseline entry (fixed? rerun --write-baseline): [%s] %s: %s\n"
        e.Analysis.Baseline.rule e.Analysis.Baseline.file e.Analysis.Baseline.message)
    stale;
  (match !format with
  | "json" -> print_endline (Analysis.Finding.list_to_json findings)
  | "sarif" ->
    print_endline
      (Analysis.Finding.list_to_sarif ~tool:"deconv-lint" ~rules:rules_meta findings)
  | _ ->
    List.iter (fun f -> print_endline (Analysis.Finding.to_text f)) findings;
    Printf.eprintf "deconv-lint: %s\n" (summary_of (List.length findings)));
  exit (if findings = [] then 0 else 1)
