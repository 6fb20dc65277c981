type check_result = {
  findings : Finding.t list;
  files : int;
  defs : int;
  iterations : int;
  errors : (string * string) list;
}

(* The robust public surface: entry points whose contract is "failures
   come back as Robust.Error, never as an arbitrary exception". The
   solver converts at these boundaries; everything reachable
   underneath may use typed internal exceptions (Linalg.Singular,
   Rootfind.No_bracket, ...) freely as long as something on the path
   converts them. *)
let default_roots =
  [
    "Deconv.Pipeline.";
    "Deconv.Batch.";
    "Deconv.Bootstrap.";
    "Deconv.Chaos.";
    "Deconv.Solver.solve_robust";
  ]

(* Capabilities whose origin lies inside the audited concurrency and
   observability layers are sanctioned: lib/parallel's pool state is the
   scheduler itself and lib/obs guards its sinks with the domain-safe
   clamps R8 confines there. *)
let audited_origin (o : Effects.origin) = Libpath.under [ "parallel"; "obs" ] o.file

let numeric_core path = Libpath.under [ "numerics"; "spline"; "optimize" ] path

(* ---------------- findings ---------------- *)

let finding_at (o : Effects.origin) ~rule ~message ~hint =
  { Finding.file = o.file; line = o.line; col = o.col; rule; message; hint }

let describe_exn name =
  if String.equal name Effects.dynamic_raise then
    "an exception value only known at runtime"
  else name

let root_matches roots (d : Callgraph.def) =
  d.Callgraph.public
  && (List.exists
        (fun pat ->
          let n = String.length pat in
          if n > 0 && Char.equal pat.[n - 1] '.' then
            String.length d.Callgraph.id > n
            && String.equal (String.sub d.Callgraph.id 0 n) pat
          else String.equal d.Callgraph.id pat)
        roots
     || not (Libpath.in_lib d.Callgraph.path))

let check_graph ~roots graph (eff : Effects.result) =
  let findings = ref [] in
  let seen = Hashtbl.create 64 in
  let emit key f =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      findings := f :: !findings
    end
  in
  let defs = Callgraph.defs graph in
  (* R10: exception escape from the declared roots. *)
  List.iter
    (fun (d : Callgraph.def) ->
      if root_matches roots d then
        match eff.Effects.caps_of d.Callgraph.id with
        | None -> ()
        | Some caps ->
          Effects.Names.iter
            (fun name (o : Effects.origin) ->
              if not (String.equal name Effects.robust_error) then
                emit
                  ("R10", o.file, o.line, o.col, name)
                  (finding_at o ~rule:"R10"
                     ~message:
                       (Printf.sprintf
                          "%s raised here can escape the typed-error entry point %s \
                           without becoming a Robust.Error"
                          (describe_exn name) d.Callgraph.id)
                     ~hint:
                       "convert at the boundary (Robust.Error.raise_error / of_exn), catch \
                        it on the path, or suppress here with the reason it cannot fire"))
            caps.Effects.raises)
    defs;
  (* R11: nondeterminism reachable from Parallel task closures. *)
  List.iter
    (fun (t : Effects.task) ->
      let site = Printf.sprintf "%s:%d" t.Effects.site.Effects.file t.Effects.site.Effects.line in
      let caps = t.Effects.caps in
      let cap_finding what (o : Effects.origin) message hint =
        if not (audited_origin o) then
          emit ("R11", o.file, o.line, o.col, what) (finding_at o ~rule:"R11" ~message ~hint)
      in
      Option.iter
        (fun o ->
          cap_finding "mutates" o
            (Printf.sprintf
               "module-level mutable state is written here, inside the parallel task \
                dispatched at %s: results would depend on domain scheduling"
               site)
            "make the state per-chunk (each task owns its output slot), or move the \
             write outside the fan-out")
        caps.Effects.mutates;
      Option.iter
        (fun o ->
          cap_finding "rng" o
            (Printf.sprintf
               "the ambient Random generator is read here, inside the parallel task \
                dispatched at %s: draws depend on domain interleaving"
               site)
            "derive one Numerics.Rng.split substream per chunk before dispatch and pass \
             it in explicitly")
        caps.Effects.rng;
      Option.iter
        (fun o ->
          cap_finding "clock" o
            (Printf.sprintf
               "a raw clock is read here, inside the parallel task dispatched at %s: \
                values differ run to run"
               site)
            "time through Obs.Span / Obs.Clock (mockable and domain-safe), outside the \
             task body")
        caps.Effects.clock;
      Effects.Names.iter
        (fun name (o : Effects.origin) ->
          if not (String.equal name Effects.robust_error) && not (audited_origin o) then
            emit
              ("R11", o.file, o.line, o.col, name)
              (finding_at o ~rule:"R11"
                 ~message:
                   (Printf.sprintf
                      "%s raised here can escape the parallel task dispatched at %s: an \
                       untyped failure cancels sibling chunks in scheduling order"
                      (describe_exn name) site)
                 ~hint:
                   "raise Robust.Error (captured deterministically per index by \
                    parallel_map_result) or handle it inside the task"))
        caps.Effects.raises)
    eff.Effects.tasks;
  (* R15: exported library values that no other file names. Only the
     library and the user trees count as users; tests and scratch files
     do not. *)
  List.iter
    (fun (e : Callgraph.export) ->
      match Callgraph.find graph e.Callgraph.value with
      | Some d when Libpath.in_lib e.Callgraph.mli ->
        let user path =
          (not (String.equal path d.Callgraph.path))
          && (Libpath.in_lib path || Libpath.in_user_tree path)
        in
        if not (List.exists user (Callgraph.named_in graph d.Callgraph.id)) then
          emit
            ("R15", e.Callgraph.mli, e.Callgraph.line, e.Callgraph.col, e.Callgraph.value)
            {
              Finding.file = e.Callgraph.mli;
              line = e.Callgraph.line;
              col = e.Callgraph.col;
              rule = "R15";
              message =
                Printf.sprintf
                  "%s is exported but no file outside %s names it (tests do not count)"
                  e.Callgraph.value d.Callgraph.path;
              hint =
                "drop it from the .mli if only its own module uses it, move a test-only \
                 oracle to test/testutil.ml, delete dead code with its tests, or \
                 suppress here with the reason it stays";
            }
      | _ -> ())
    (Callgraph.exports graph);
  (* R12: purity of the numeric core. *)
  List.iter
    (fun (d : Callgraph.def) ->
      if numeric_core d.Callgraph.path then
        match eff.Effects.caps_of d.Callgraph.id with
        | None -> ()
        | Some caps ->
          let cap_finding what (o : Effects.origin) message hint =
            if not (audited_origin o) then
              emit ("R12", o.file, o.line, o.col, what)
                (finding_at o ~rule:"R12" ~message ~hint)
          in
          Option.iter
            (fun o ->
              cap_finding "io" o
                (Printf.sprintf
                   "IO performed here is reachable from the numeric kernel %s"
                   d.Callgraph.id)
                "hot kernels must stay pure: return data and let bin/ or lib/dataio do \
                 the IO")
            caps.Effects.io;
          Option.iter
            (fun o ->
              cap_finding "rng" o
                (Printf.sprintf
                   "the ambient Random generator read here is reachable from the numeric \
                    kernel %s"
                   d.Callgraph.id)
                "take an explicit Numerics.Rng.t argument instead")
            caps.Effects.rng;
          Option.iter
            (fun o ->
              cap_finding "clock" o
                (Printf.sprintf
                   "a raw clock read here is reachable from the numeric kernel %s"
                   d.Callgraph.id)
                "timing belongs in Obs.Clock; kernels must not read time")
            caps.Effects.clock)
    defs;
  List.rev !findings

(* ---------------- drivers ---------------- *)

let check_sources ?(disabled = []) ?(roots = default_roots) sources =
  let disabled = List.filter_map Rules.normalize_id disabled in
  let off rule = List.exists (String.equal rule) disabled in
  let users, sources = List.partition (fun (p, _) -> Libpath.in_user_tree p) sources in
  let graph, errors = Callgraph.build ~users sources in
  let eff = Effects.analyze graph in
  let raw = check_graph ~roots graph eff in
  (* Per-site suppressions, same syntax and nearby-line semantics as the
     per-file pass. Malformed suppressions are already reported (R0) by
     the per-file pass over the same tree, so they are not re-reported
     here. *)
  let supps_by_file = Hashtbl.create 16 in
  List.iter
    (fun (path, source) ->
      let supps, _bad = Suppress.scan source in
      Hashtbl.replace supps_by_file path supps)
    sources;
  let keep (f : Finding.t) =
    (not (off f.Finding.rule))
    &&
    match Hashtbl.find_opt supps_by_file f.Finding.file with
    | None -> true
    | Some supps ->
      not
        (List.exists
           (fun s -> Suppress.covers s ~rule:f.Finding.rule ~line:f.Finding.line)
           supps)
  in
  let n_defs = List.length (Callgraph.defs graph) in
  {
    findings = List.sort Finding.compare (List.filter keep raw);
    files =
      List.length
        (List.filter (fun (p, _) -> Filename.check_suffix p ".ml") (sources @ users));
    defs = n_defs;
    iterations = eff.Effects.iterations;
    errors;
  }

let check_paths ?disabled ?roots paths =
  match Lint.collect_files paths with
  | Error msg ->
    { findings = []; files = 0; defs = 0; iterations = 0; errors = [ ("", msg) ] }
  | Ok files ->
    let sources, read_errors =
      List.fold_left
        (fun (srcs, errs) file ->
          match In_channel.with_open_bin file In_channel.input_all with
          | source -> ((file, source) :: srcs, errs)
          | exception Sys_error msg -> (srcs, (file, msg) :: errs))
        ([], []) files
    in
    let result = check_sources ?disabled ?roots (List.rev sources) in
    { result with errors = result.errors @ List.rev read_errors }
