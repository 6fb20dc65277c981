open Parsetree
open Longident

type run_result = {
  findings : Finding.t list;
  files : int;
  errors : (string * string) list;
}

(* ---------------- rule implementations ---------------- *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_funs =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "sin"; "cos"; "tan"; "asin"; "acos";
    "atan"; "atan2"; "sinh"; "cosh"; "tanh"; "float_of_int"; "float_of_string"; "abs_float";
    "mod_float"; "ceil"; "floor"; "copysign"; "ldexp";
  ]

let ident_of e = match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

(* Does an expression syntactically look float-valued? A heuristic: the
   type checker is not available here, so we only claim float-ness for
   float literals, float arithmetic, Float.* calls and float-returning
   stdlib functions. *)
let rec looks_float e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
    true
  | Pexp_apply (f, _) -> (
    match ident_of f with
    | Some (Lident op) when List.exists (String.equal op) float_ops -> true
    | Some (Lident fn) when List.exists (String.equal fn) float_funs -> true
    | Some (Ldot (Lident "Float", fn)) ->
      (* Float.to_int, Float.compare etc. return non-floats; anything else
         from Float is float-valued. *)
      not
        (List.exists (String.equal fn)
           [ "to_int"; "compare"; "equal"; "is_nan"; "is_finite"; "is_integer"; "to_string" ])
    | _ -> false)
  | Pexp_ifthenelse (_, e1, Some e2) -> looks_float e1 || looks_float e2
  | _ -> false

(* R6: expressions that syntactically carry a result value. *)
let resulty e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident ("Ok" | "Error"); _ }, Some _) -> true
  | Pexp_apply (f, _) -> (
    match ident_of f with
    | Some lid ->
      let rec parts = function
        | Longident.Lident s -> [ s ]
        | Longident.Ldot (l, s) -> parts l @ [ s ]
        | Longident.Lapply _ -> []
      in
      let ps = parts lid in
      let last = match List.rev ps with s :: _ -> s | [] -> "" in
      let contains_result s =
        let n = String.length s and m = String.length "result" in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) "result" || go (i + 1))
        in
        go 0
      in
      List.exists (String.equal "Result") ps
      || contains_result (String.lowercase_ascii last)
      || List.exists (String.equal last) [ "validate"; "solve_robust" ]
    | None -> false)
  | _ -> false

type catch_all = Not_catch_all | Wildcard | Var of string

let rec classify_catch_all p =
  match p.ppat_desc with
  | Ppat_any -> Wildcard
  | Ppat_var v -> Var v.Location.txt
  | Ppat_alias (inner, v) -> (
    match classify_catch_all inner with
    | Not_catch_all -> Not_catch_all
    | _ -> Var v.Location.txt)
  | Ppat_or (a, b) -> (
    match classify_catch_all a with Not_catch_all -> classify_catch_all b | r -> r)
  | Ppat_constraint (inner, _) -> classify_catch_all inner
  | _ -> Not_catch_all

let reraises_var var body =
  let found = ref false in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match ident_of f with
      | Some (Lident ("raise" | "raise_notrace"))
      | Some (Ldot (Lident "Printexc", "raise_with_backtrace")) -> (
        match args with
        | (_, { pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }) :: _
          when String.equal v var ->
          found := true
        | _ -> ())
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

(* ---------------- the confinement table ---------------- *)

(* Rules R4/R5/R7/R8/R9/R13/R14 all read "these expressions are allowed
   only under these paths". Each row is one clause of one rule: where it
   applies (all files, or only lib/ when [lib_only]; never under the
   lib/-relative [allowed] dirs and files), what it matches, and the
   hint. The walker folds over the rows and [scope_text] renders the
   same rows for --list-rules, so each rule's scope is written once. *)
type row = {
  rule : string;
  lib_only : bool;
  allowed : string list;
  data_exempt : bool;  (* literals inside array/list data tables are exempt *)
  matches : expression -> string option;  (* the finding's message *)
  hint : string;
}

let applies row path =
  ((not row.lib_only) || Libpath.in_lib path) && not (Libpath.under row.allowed path)

let one_of names name = List.exists (String.equal name) names

(* The (Module, fn) pair an identifier row matches on: the trailing two
   components, so [Stats.runs_z] and [Numerics.Stats.runs_z] agree. A
   leading [Stdlib.] never hides a name: [Stdlib.Sys.time] gives
   ("Sys", "time"), and [print_endline] and [Stdlib.print_endline] both
   give ("", "print_endline"). *)
let ident_pair e =
  match ident_of e with
  | Some (Lident fn | Ldot (Lident "Stdlib", fn)) -> Some ("", fn)
  | Some (Ldot ((Lident m | Ldot (_, m)), fn)) -> Some (m, fn)
  | _ -> None

(* Match [m.fn] for [m] in [modules] and [fn] accepted by [fn_ok]. The
   identifier itself is flagged, so a bare reference (let t = Sys.time)
   or a partial application is caught like a call. *)
let ident modules fn_ok message e =
  match ident_pair e with
  | Some (m, fn) when one_of modules m && fn_ok fn -> Some (message m fn)
  | _ -> None

(* The paper constants of rule R4: phi_sst ~ N(0.15, (0.13*0.15)^2), the
   40/60 SW/ST daughter-volume split of eq. 11, and the 150-minute mean
   cycle time. A list literal, so the linter's own data-table exemption
   covers this table when it lints itself. *)
let magic_constants = [ 0.15; 0.13; 0.4; 0.6; 150.0 ]

let magic_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (repr, None)) -> (
    match float_of_string_opt repr with
    | Some v when List.exists (Float.equal v) magic_constants ->
      Some (Printf.sprintf "magic paper constant %s outside lib/cellpop/params.ml" repr)
    | _ -> None)
  | _ -> None

(* R13 flags a procfs path literal as well as the Gc identifiers, so an
   ad-hoc open_in "/proc/..." cannot slip past by avoiding the Gc module. *)
let procfs_literal e =
  match e.pexp_desc with
  (* lint: allow R13 -- the rule's own prefix constant, not a procfs read *)
  | Pexp_constant (Pconst_string (s, _, _)) when String.starts_with ~prefix:"/proc" s ->
    Some "procfs path literal outside lib/obs: procfs reads are Linux-only telemetry"
  | _ -> None

let r5_plain =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes"; "stdout"; "stderr";
  ]

let r5_format =
  [
    "printf"; "eprintf"; "print_string"; "print_char"; "print_int"; "print_float";
    "print_newline"; "print_space"; "print_cut"; "print_flush"; "std_formatter";
    "err_formatter";
  ]

let atomic_hint = "write final paths through Dataio.Atomic_file.write (temp file + fsync + rename)"

let confinement =
  [
    {
      rule = "R4"; lib_only = true; allowed = [ "cellpop/params.ml" ]; data_exempt = true;
      matches = magic_literal;
      hint =
        "reference the named constant in Cellpop.Params (e.g. sw_volume_fraction, \
         st_volume_fraction, paper_2011) so the value lives in exactly one place";
    };
    {
      rule = "R5"; lib_only = true; allowed = []; data_exempt = false;
      matches =
        ident [ "" ] (one_of r5_plain) (fun _ name ->
          Printf.sprintf "'%s' writes to the process's std channels from library code" name);
      hint = "return a string, or take an explicit out_channel / Format.formatter argument";
    };
    {
      rule = "R5"; lib_only = true; allowed = []; data_exempt = false;
      matches =
        ident [ "Printf" ] (one_of [ "printf"; "eprintf" ]) (fun _ fn ->
          Printf.sprintf "Printf.%s writes to std channels from library code" fn);
      hint = "use Printf.sprintf to build a string, or Printf.fprintf on an explicit channel";
    };
    {
      rule = "R5"; lib_only = true; allowed = []; data_exempt = false;
      matches =
        ident [ "Format" ] (one_of r5_format) (fun _ fn ->
          Printf.sprintf "Format.%s targets the std formatters from library code" fn);
      hint = "take an explicit Format.formatter argument (Fmt style) instead";
    };
    {
      rule = "R7"; lib_only = false; allowed = [ "obs" ]; data_exempt = false;
      matches =
        ident [ "Sys" ] (one_of [ "time" ]) (fun _ _ ->
          "Sys.time is processor time, not wall-clock, and bypasses the mockable Obs.Clock");
      hint = "use Obs.Clock.now () (wall-clock, monotonic, substitutable in tests)";
    };
    {
      rule = "R7"; lib_only = false; allowed = [ "obs" ]; data_exempt = false;
      matches =
        ident [ "Unix" ] (one_of [ "gettimeofday"; "time"; "times" ]) (fun _ fn ->
          Printf.sprintf "raw timing call Unix.%s outside lib/obs bypasses Obs.Clock" fn);
      hint = "use Obs.Clock.now (), or add a source to Obs.Clock if a new clock is needed";
    };
    {
      rule = "R8"; lib_only = false; allowed = [ "parallel"; "obs" ]; data_exempt = false;
      matches =
        ident [ "Domain" ] (one_of [ "spawn" ]) (fun _ _ ->
          "raw Domain.spawn outside lib/parallel bypasses the deterministic pool: results \
           would depend on the ad-hoc fan-out, not the fixed chunk schedule");
      hint = "use Parallel.parallel_for / Parallel.parallel_map (or a Parallel.Pool)";
    };
    {
      rule = "R8"; lib_only = false; allowed = [ "parallel"; "obs" ]; data_exempt = false;
      matches =
        ident [ "Mutex"; "Condition" ] (fun _ -> true) (fun m fn ->
          Printf.sprintf
            "raw lock primitive %s.%s outside lib/parallel and lib/obs risks deadlock \
             against the pool's own lock"
            m fn);
      hint =
        "fan work out through Parallel (workers never need app-level locks: each chunk \
         owns its output slots); shared-sink guards belong in lib/obs";
    };
    {
      rule = "R9"; lib_only = true; allowed = [ "dataio/atomic_file.ml" ]; data_exempt = false;
      matches =
        ident [ "" ] (one_of [ "open_out"; "open_out_bin"; "open_out_gen" ]) (fun _ fn ->
          Printf.sprintf
            "'%s' truncates the destination before writing: a crash mid-write leaves a \
             torn file"
            fn);
      hint = atomic_hint;
    };
    {
      rule = "R9"; lib_only = true; allowed = [ "dataio/atomic_file.ml" ]; data_exempt = false;
      matches =
        ident [ "Out_channel" ]
          (one_of
             [ "open_bin"; "open_text"; "open_gen"; "with_open_bin"; "with_open_text";
               "with_open_gen" ])
          (fun _ fn ->
            Printf.sprintf
              "Out_channel.%s opens a raw output channel on a final path from library code" fn);
      hint = atomic_hint;
    };
    {
      rule = "R13"; lib_only = false; allowed = [ "obs" ]; data_exempt = false;
      matches =
        ident [ "Gc" ] (one_of [ "stat"; "quick_stat"; "counters"; "allocated_bytes" ])
          (fun _ fn ->
            Printf.sprintf
              "raw Gc.%s outside lib/obs: GC introspection is telemetry and belongs to the \
               resource sampler"
              fn);
      hint =
        "read Obs.Resource.read () (or emit Obs.Resource.sample ()); it picks the cheap \
         quick_stat variant and owns the portability story";
    };
    {
      rule = "R13"; lib_only = false; allowed = [ "obs" ]; data_exempt = false;
      matches = procfs_literal;
      hint =
        "use Obs.Resource.read (), which reads procfs once with the unavailable-platform \
         fallback";
    };
    {
      rule = "R14"; lib_only = true; allowed = [ "numerics"; "core" ]; data_exempt = false;
      matches =
        ident [ "Linalg" ] (one_of [ "condition_spd" ]) (fun _ _ ->
          "condition-number computation outside the quality layers: κ is a quality \
           statistic and is reported through Obs.Diag");
      hint =
        "use Quality.system (the one κ/edf path; solve_robust already reads it) and let the \
         diag stream carry the value";
    };
    {
      rule = "R14"; lib_only = true; allowed = [ "numerics"; "core" ]; data_exempt = false;
      matches =
        ident [ "Stats" ] (one_of [ "runs_z"; "moment_z"; "normality_z" ]) (fun _ fn ->
          Printf.sprintf
            "residual-test statistic Stats.%s referenced outside the quality layers" fn);
      hint =
        "route through Quality.residual_stats / Diagnostics so the statistic has one \
         definition, and emit it as an Obs.Diag event instead of printing it";
    };
    (* lib/core consumes factorizations through Optimize.Spectral and
       Optimize.Ridge, which own the anchoring, the factorization counter
       and the spans: a raw eigensolver or triangular-substitution call
       bypasses all three. *)
    {
      rule = "R14"; lib_only = true; allowed = [ "numerics"; "optimize" ]; data_exempt = false;
      matches =
        ident [ "Linalg" ]
          (one_of
             [ "jacobi_eigen"; "generalized_eigen_spd"; "lower_solve"; "lower_transpose_solve" ])
          (fun _ fn ->
            Printf.sprintf
              "factorization internal Linalg.%s referenced outside lib/numerics and \
               lib/optimize"
              fn);
      hint =
        "consume the decomposition through Optimize.Spectral (or Optimize.Ridge), which \
         owns the anchoring, the factorization counter and the telemetry spans";
    };
  ]

let row_scope row =
  let exempt =
    List.map
      (fun a -> if Filename.check_suffix a ".ml" then "lib/" ^ a else "lib/" ^ a ^ "/")
      row.allowed
    @ if row.data_exempt then [ "array/list data tables" ] else []
  in
  match (row.lib_only, exempt) with
  | false, [] -> "everywhere"
  | true, [] -> "lib/ only"
  | false, _ -> "everywhere except " ^ String.concat " and " exempt
  | true, _ -> "lib/ only, except " ^ String.concat " and " exempt

let scope_text (r : Rules.t) =
  match r.Rules.scope with
  | Rules.Everywhere -> "everywhere"
  | Rules.Lib_only -> "lib/ only"
  | Rules.Check_only -> "whole-program, via 'deconv-lint check'"
  | Rules.Confined ->
    List.fold_left
      (fun acc row ->
        let s = row_scope row in
        if String.equal row.rule r.Rules.id && not (List.exists (String.equal s) acc) then
          acc @ [ s ]
        else acc)
      [] confinement
    |> String.concat "; "

(* ---------------- the walker ---------------- *)

type ctx = {
  path : string;
  lib : bool;
  rows : row list;  (* the confinement rows that apply to [path] *)
  mutable in_data : bool;  (* inside an array/list literal (data table) *)
  mutable acc : Finding.t list;
}

let report ctx ~loc ~rule ~message ~hint =
  ctx.acc <- Finding.make ~file:ctx.path ~loc ~rule ~message ~hint :: ctx.acc

let check_r1 ctx f args =
  let flag op suggestion =
    match args with
    | (_, a) :: (_, b) :: _ when looks_float a || looks_float b ->
      report ctx ~loc:f.pexp_loc ~rule:"R1"
        ~message:(Printf.sprintf "polymorphic '%s' on float operands is NaN-unsafe" op)
        ~hint:suggestion
    | _ -> ()
  in
  match ident_of f with
  | Some (Lident ("=" as op)) | Some (Ldot (Lident "Stdlib", ("=" as op))) ->
    flag op "use Float.equal, or an explicit tolerance comparison"
  | Some (Lident ("<>" as op)) | Some (Ldot (Lident "Stdlib", ("<>" as op))) ->
    flag op "use 'not (Float.equal ...)', or an explicit tolerance comparison"
  | Some (Lident ("compare" as op)) | Some (Ldot (Lident "Stdlib", ("compare" as op))) ->
    flag op "use Float.compare"
  | Some (Lident (("min" | "max") as op)) | Some (Ldot (Lident "Stdlib", (("min" | "max") as op)))
    ->
    flag op (Printf.sprintf "use Float.%s, which handles NaN explicitly" op)
  | _ -> ()

let check_r2_case ctx case =
  match case.pc_guard with
  | Some _ -> () (* a guarded handler lets unmatched exceptions fall through *)
  | None -> (
    let inner_pat p =
      match p.ppat_desc with Ppat_exception inner -> Some inner | _ -> None
    in
    let pat =
      match inner_pat case.pc_lhs with Some inner -> inner | None -> case.pc_lhs
    in
    match classify_catch_all pat with
    | Not_catch_all -> ()
    | Wildcard ->
      report ctx ~loc:pat.ppat_loc ~rule:"R2"
        ~message:
          "catch-all exception handler 'with _ ->' swallows typed errors \
           (Robust.Error) and programming errors alike"
        ~hint:"match the specific exceptions this expression can raise; re-raise the rest"
    | Var v ->
      if not (reraises_var v case.pc_rhs) then
        report ctx ~loc:pat.ppat_loc ~rule:"R2"
          ~message:
            (Printf.sprintf
               "exception handler binds '%s' but never re-raises it: a catch-all that \
                discards the exception"
               v)
          ~hint:"handle the specific exceptions and 'raise' the others")

let check_r3 ctx f args =
  match ident_of f with
  | Some (Ldot (Lident "List", (("hd" | "tl") as fn))) ->
    report ctx ~loc:f.pexp_loc ~rule:"R3"
      ~message:(Printf.sprintf "List.%s raises on the empty list" fn)
      ~hint:"pattern-match on the list (| [] -> ... | x :: rest -> ...)"
  | Some (Ldot (Lident "Option", "get")) ->
    report ctx ~loc:f.pexp_loc ~rule:"R3"
      ~message:"Option.get raises on None"
      ~hint:"pattern-match, or use Option.value ~default / Option.fold"
  | Some (Ldot (Lident "Array", "get")) -> (
    match args with
    | (_, { pexp_desc = Pexp_array _; _ }) :: _ ->
      report ctx ~loc:f.pexp_loc ~rule:"R3"
        ~message:"indexing an array literal can raise Invalid_argument at runtime"
        ~hint:"bind the literal to a name and bounds-check, or match on it"
    | _ -> ())
  | _ -> ()

let check_r6 ctx f args =
  let is_ignore e =
    match ident_of e with
    | Some (Lident "ignore") | Some (Ldot (Lident "Stdlib", "ignore")) -> true
    | _ -> false
  in
  let flag loc arg =
    if resulty arg then
      report ctx ~loc ~rule:"R6"
        ~message:"'ignore' discards an expression that carries a result value"
        ~hint:"match on Ok/Error (or log the Robust.Error) instead of dropping it"
  in
  if is_ignore f then
    match args with [ (_, arg) ] -> flag f.pexp_loc arg | _ -> ()
  else
    match (ident_of f, args) with
    | Some (Lident "@@"), [ (_, lhs); (_, arg) ] when is_ignore lhs -> flag lhs.pexp_loc arg
    | Some (Lident "|>"), [ (_, arg); (_, rhs) ] when is_ignore rhs -> flag rhs.pexp_loc arg
    | _ -> ()

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) ->
      check_r1 ctx f args;
      check_r3 ctx f args;
      check_r6 ctx f args
    | Pexp_try (_, cases) -> if ctx.lib then List.iter (check_r2_case ctx) cases
    | Pexp_match (_, cases) ->
      if ctx.lib then
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> check_r2_case ctx c
            | _ -> ())
          cases
    | _ -> ());
    List.iter
      (fun row ->
        if not (row.data_exempt && ctx.in_data) then
          match row.matches e with
          | Some message -> report ctx ~loc:e.pexp_loc ~rule:row.rule ~message ~hint:row.hint
          | None -> ())
      ctx.rows;
    match e.pexp_desc with
    | Pexp_array _ | Pexp_construct ({ txt = Lident "::"; _ }, Some _) ->
      let saved = ctx.in_data in
      ctx.in_data <- true;
      default.expr self e;
      ctx.in_data <- saved
    | _ -> default.expr self e
  in
  { default with expr }

(* ---------------- driver ---------------- *)

let parse_kind path =
  if Filename.check_suffix path ".mli" then `Interface
  else if Filename.check_suffix path ".ml" then `Implementation
  else `Other

let walk_source ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match parse_kind path with
  | `Other -> Error (Printf.sprintf "%s: not an OCaml source file" path)
  | `Interface -> (
    (* Interfaces carry no expressions; parse for syntax errors only. *)
    match Parse.interface lexbuf with
    | (_ : signature) -> Ok []
    (* lint: allow R2 — the parser raises several exception types
       (Syntaxerr.Error, Lexer.Error, ...); any of them means exactly
       "this buffer does not parse", which is what we report *)
    | exception exn -> Error (Printf.sprintf "%s: parse error (%s)" path (Printexc.to_string exn))
    )
  | `Implementation -> (
    match Parse.implementation lexbuf with
    | str ->
      let ctx =
        {
          path;
          lib = Libpath.in_lib path;
          rows = List.filter (fun row -> applies row path) confinement;
          in_data = false;
          acc = [];
        }
      in
      let it = make_iterator ctx in
      it.Ast_iterator.structure it str;
      Ok ctx.acc
    (* lint: allow R2 — same as above: any parser exception is by
       definition a parse error for this file *)
    | exception exn -> Error (Printf.sprintf "%s: parse error (%s)" path (Printexc.to_string exn))
    )

let lint_source ?(disabled = []) ~path source =
  let disabled = List.filter_map Rules.normalize_id disabled in
  let off rule = List.exists (String.equal rule) disabled in
  match walk_source ~path source with
  | Error _ as e -> e
  | Ok raw ->
    let supps, bad = Suppress.scan source in
    let malformed =
      List.map
        (fun (m : Suppress.malformed) ->
          {
            Finding.file = path;
            line = m.Suppress.line;
            col = 1;
            rule = "R0";
            message = m.Suppress.why;
            hint = "write '(* lint: allow <rule-id> — <reason> *)'";
          })
        bad
    in
    let keep (f : Finding.t) =
      (not (off f.Finding.rule))
      && not
           (List.exists
              (fun s -> Suppress.covers s ~rule:f.Finding.rule ~line:f.Finding.line)
              supps)
    in
    Ok (List.sort Finding.compare (List.filter keep (raw @ malformed)))

let lint_file ~disabled path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> lint_source ~disabled ~path source
  | exception Sys_error msg -> Error msg

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let skip_dir name =
  String.equal name "_build"
  || (String.length name > 0 && Char.equal name.[0] '.')

let collect_files paths =
  let rec walk acc path =
    match acc with
    | Error _ -> acc
    | Ok files -> (
      match Sys.is_directory path with
      | true ->
        Sys.readdir path |> Array.to_list
        |> List.sort String.compare
        |> List.fold_left
             (fun acc name ->
               if skip_dir name then acc else walk acc (Filename.concat path name))
             (Ok files)
      | false -> if is_source path then Ok (path :: files) else Ok files
      | exception Sys_error msg -> Error msg)
  in
  match List.fold_left walk (Ok []) paths with
  | Error _ as e -> e
  | Ok files -> Ok (List.sort String.compare files)

let run ?(disabled = []) paths =
  match collect_files paths with
  | Error msg -> { findings = []; files = 0; errors = [ ("", msg) ] }
  | Ok files ->
    let findings, errors =
      List.fold_left
        (fun (fs, errs) file ->
          match lint_file ~disabled file with
          | Ok found -> (fs @ found, errs)
          | Error msg -> (fs, (file, msg) :: errs))
        ([], []) files
    in
    {
      findings = List.sort Finding.compare findings;
      files = List.length files;
      errors = List.rev errors;
    }
