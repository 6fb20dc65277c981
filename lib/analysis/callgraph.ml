open Parsetree

type target = Def of string | External of string

type def = {
  id : string;
  path : string;
  line : int;
  col : int;
  public : bool;
  body : Parsetree.expression;
}

type scope = {
  prefixes : string list;
      (* enclosing module paths, innermost first; the last element is the
         file's own prefix, e.g. ["Deconv.Solver"] for lib/core/solver.ml *)
  opens : string list list;  (* flattened [open M] paths visible here *)
  aliases : (string * string list) list;  (* module X = Y: "X" -> parts of Y *)
}

type export = { value : string; mli : string; line : int; col : int }

type t = {
  table : (string, def) Hashtbl.t;
  scopes : (string, scope) Hashtbl.t;
  includes : (string, string list list) Hashtbl.t;
      (* module path -> flattened paths of the modules it [include]s *)
  exns : (string, unit) Hashtbl.t;  (* qualified declared exception names *)
  exports : export list;
  named_in : (string, string list) Hashtbl.t;  (* def id -> files naming it *)
}

(* ---------------- path -> module prefix ---------------- *)

(* The dune library whose directory is lib/<dir>: the wrapping module is
   the capitalized directory name, except where the library's (name ...)
   differs from its directory. lib/core is the only such library today;
   new libraries that follow the dir = name convention need no entry. *)
let lib_module_of_dir = function
  | "core" -> "Deconv"
  | dir -> String.capitalize_ascii dir

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension file)

let module_prefix_of_path path =
  let segs = Libpath.segments path in
  let rec after_lib = function
    | "lib" :: dir :: rest when rest <> [] -> Some (dir, rest)
    | _ :: rest -> after_lib rest
    | [] -> None
  in
  match after_lib segs with
  | Some (dir, rest) -> (
    let libmod = lib_module_of_dir dir in
    (* Nested dirs under a library keep only the file segment: dune
       flattens module paths inside a library. *)
    match List.rev rest with
    | file :: _ ->
      let m = module_of_file file in
      if String.equal m libmod then libmod else libmod ^ "." ^ m
    | [] -> libmod)
  | None -> (
    match List.rev segs with
    | file :: _ -> module_of_file file
    | [] -> "Scratch")

(* ---------------- small helpers ---------------- *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (f, _) -> flatten_lid f

let join parts = String.concat "." parts

let vars_of_pattern p =
  let acc = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var v -> acc := (v.Location.txt, p.ppat_loc) :: !acc
    | Ppat_alias (inner, v) ->
      acc := (v.Location.txt, p.ppat_loc) :: !acc;
      go inner
    | Ppat_tuple ps | Ppat_array ps -> List.iter go ps
    | Ppat_construct (_, Some (_, inner)) | Ppat_variant (_, Some inner) -> go inner
    | Ppat_record (fields, _) -> List.iter (fun (_, p) -> go p) fields
    | Ppat_or (a, b) ->
      go a;
      go b
    | Ppat_constraint (inner, _) | Ppat_lazy inner | Ppat_open (_, inner) -> go inner
    | Ppat_exception inner -> go inner
    | _ -> ()
  in
  go p;
  List.rev !acc

let pattern_vars p = List.map fst (vars_of_pattern p)

(* ---------------- build ---------------- *)

type builder = {
  b_table : (string, def) Hashtbl.t;
  b_scopes : (string, scope) Hashtbl.t;
  b_includes : (string, string list list) Hashtbl.t;
  b_exns : (string, unit) Hashtbl.t;
}

let add_def b ~prefix ~path ~public (name, loc) body =
  let id = join (prefix @ [ name ]) in
  if not (Hashtbl.mem b.b_table id) then begin
    let pos = loc.Location.loc_start in
    Hashtbl.replace b.b_table id
      {
        id;
        path;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1;
        public;
        body;
      }
  end

(* Walk a structure, registering defs under [prefix]. [enclosing] is the
   stack of module paths (innermost first) used later for resolution. *)
let rec walk_structure b ~path ~prefix str =
  List.iter (walk_item b ~path ~prefix) str

and walk_item b ~path ~prefix item =
  match item.pstr_desc with
  | Pstr_value (_, bindings) ->
    List.iter
      (fun vb ->
        List.iter
          (fun (name, loc) -> add_def b ~prefix ~path ~public:true (name, loc) vb.pvb_expr)
          (vars_of_pattern vb.pvb_pat))
      bindings
  | Pstr_exception ext ->
    Hashtbl.replace b.b_exns (join (prefix @ [ ext.ptyexn_constructor.pext_name.txt ])) ()
  | Pstr_module mb -> walk_module_binding b ~path ~prefix mb
  | Pstr_recmodule mbs -> List.iter (walk_module_binding b ~path ~prefix) mbs
  | Pstr_include { pincl_mod; _ } -> (
    match (unwrap_module pincl_mod).pmod_desc with
    | Pmod_ident lid ->
      let key = join prefix in
      let target = flatten_lid lid.Location.txt in
      (* The included path is resolved in the include's own scope:
         [include Base] inside Deconv.Solver names the sibling
         Deconv.Base. Record the target qualified through every
         enclosing prefix (outermost last, bare path as written first);
         expansion only keeps variants that hit a real definition, so
         the extras are harmless. *)
      let drop_last parts =
        match List.rev parts with [] -> [] | _ :: rest -> List.rev rest
      in
      let rec qualified ctx acc =
        match ctx with
        | [] -> List.rev (target :: acc)
        | _ -> qualified (drop_last ctx) ((ctx @ target) :: acc)
      in
      let prev = try Hashtbl.find b.b_includes key with Not_found -> [] in
      Hashtbl.replace b.b_includes key (qualified prefix [] @ prev)
    | Pmod_structure str -> walk_structure b ~path ~prefix str
    | _ -> ())
  | _ -> ()

and unwrap_module m =
  match m.pmod_desc with Pmod_constraint (inner, _) -> unwrap_module inner | _ -> m

and walk_module_binding b ~path ~prefix mb =
  match mb.pmb_name.Location.txt with
  | None -> ()
  | Some name -> (
    let sub = prefix @ [ name ] in
    let rec handle m =
      match (unwrap_module m).pmod_desc with
      | Pmod_structure str -> walk_structure b ~path ~prefix:sub str
      | Pmod_functor (_, body) ->
        (* Functor bodies are analyzed in place: members of any
           application [F (X)] resolve into the body's definitions — a
           conservative, argument-insensitive view ([file_scope] records
           [module M = F (X)] as an alias of [F]). *)
        handle body
      | _ -> ()
    in
    handle mb.pmb_expr)

(* ---------------- .mli exports ---------------- *)

(* Returns (exact value paths with their [val] locations, module prefixes
   exported opaquely). *)
let rec exports_of_signature ~rel sg =
  List.fold_left
    (fun (vals, mods) item ->
      match item.psig_desc with
      | Psig_value vd -> ((rel @ [ vd.pval_name.txt ], vd.pval_loc) :: vals, mods)
      | Psig_module md -> (
        match md.pmd_name.Location.txt with
        | None -> (vals, mods)
        | Some name -> (
          match md.pmd_type.pmty_desc with
          | Pmty_signature sub ->
            let v, m = exports_of_signature ~rel:(rel @ [ name ]) sub in
            (v @ vals, m @ mods)
          | _ -> (vals, (rel @ [ name ]) :: mods)))
      | Psig_include _ ->
        (* include S: the export set is no longer syntactically visible;
           treat the whole module as exported. *)
        (vals, rel :: mods)
      | _ -> (vals, mods))
    ([], []) sg

(* ---------------- public API ---------------- *)

(* The qualification contexts of a module path, innermost first: from
   the path itself out to the library wrapper, so a sibling reference
   like [Solver.solve] from lib/core/batch.ml tries "Deconv.Solver.solve"
   — dune's wrapped-library scoping. *)
let rec enclosing_prefixes parts =
  match List.rev parts with
  | [] -> []
  | _ :: outer -> join parts :: enclosing_prefixes (List.rev outer)

(* Every [open] and module alias anywhere in a file, at module level or
   inside expressions ([let open M in], [M.(...)], [let module X = Y in]).
   File-conservative: they are visible everywhere in the file, to its
   definitions and its top-level expressions alike — over-approximating
   visibility only adds resolution candidates. [module M = F (X)] aliases
   [M] to [F], whose body holds M's members. *)
let file_scope ~prefix str =
  let opens = ref [] and aliases = ref [] in
  let alias name m =
    match (name, (unwrap_module m).pmod_desc) with
    | Some n, (Pmod_ident lid | Pmod_apply ({ pmod_desc = Pmod_ident lid; _ }, _)) ->
      aliases := (n, flatten_lid lid.Location.txt) :: !aliases
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun self item ->
          (match item.pstr_desc with
          | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
            opens := flatten_lid lid.Location.txt :: !opens
          | Pstr_module mb -> alias mb.pmb_name.Location.txt mb.pmb_expr
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self item);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, _) ->
            opens := flatten_lid lid.Location.txt :: !opens
          | Pexp_letmodule (name, m, _) -> alias name.Location.txt m
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  {
    prefixes = enclosing_prefixes (String.split_on_char '.' prefix);
    opens = !opens;
    aliases = !aliases;
  }

(* Parse [sources] into the definition table; [users] are parsed for
   their references only. Returns the graph (with [named_in] still
   empty) and every parsed file with its file-wide scope. *)
let build_graph ~users sources =
  let b =
    {
      b_table = Hashtbl.create 512;
      b_scopes = Hashtbl.create 512;
      b_includes = Hashtbl.create 32;
      b_exns = Hashtbl.create 32;
    }
  in
  let errors = ref [] in
  let parse_with parser ~path source =
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    match parser lexbuf with
    | ast -> Some ast
    (* lint: allow R2 — any parser exception (Syntaxerr.Error,
       Lexer.Error, ...) means exactly "this file does not parse", which
       is the error we record *)
    | exception exn ->
      errors := (path, Printf.sprintf "parse error (%s)" (Printexc.to_string exn)) :: !errors;
      None
  in
  let mls = List.filter (fun (p, _) -> Filename.check_suffix p ".ml") sources in
  let mlis = List.filter (fun (p, _) -> Filename.check_suffix p ".mli") sources in
  let exports = Hashtbl.create 32 in
  let export_list = ref [] in
  List.iter
    (fun (path, source) ->
      match parse_with Parse.interface ~path source with
      | None -> ()
      | Some sg ->
        let prefix = module_prefix_of_path path in
        let vals, mods = exports_of_signature ~rel:[] sg in
        Hashtbl.replace exports prefix (List.map fst vals, mods);
        List.iter
          (fun (rel, loc) ->
            let pos = loc.Location.loc_start in
            export_list :=
              {
                value = join (prefix :: rel);
                mli = path;
                line = pos.Lexing.pos_lnum;
                col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1;
              }
              :: !export_list)
          vals)
    mlis;
  let files = ref [] in
  List.iter
    (fun (path, source) ->
      match parse_with Parse.implementation ~path source with
      | None -> ()
      | Some str ->
        let prefix = module_prefix_of_path path in
        let { opens; aliases; _ } as scope = file_scope ~prefix str in
        files := (path, str, scope) :: !files;
        let file_prefix = String.split_on_char '.' prefix in
        let marker = Hashtbl.create 16 in
        Hashtbl.iter (fun id _ -> Hashtbl.replace marker id ()) b.b_table;
        walk_structure b ~path ~prefix:file_prefix str;
        (* Give every def this file contributed its scope, and apply the
           .mli export list (if any) to publicness. *)
        let export = Hashtbl.find_opt exports prefix in
        Hashtbl.iter
          (fun id (d : def) ->
            if (not (Hashtbl.mem marker id)) && String.equal d.path path then begin
              let rel =
                (* id = prefix ^ "." ^ rel *)
                let pl = String.length prefix in
                if
                  String.length id > pl + 1
                  && String.equal (String.sub id 0 pl) prefix
                then String.split_on_char '.' (String.sub id (pl + 1) (String.length id - pl - 1))
                else []
              in
              let public =
                match export with
                | None -> true
                | Some (vals, mods) ->
                  List.exists (fun v -> v = rel) vals
                  || List.exists
                       (fun m ->
                         let ml = List.length m in
                         List.length rel > ml
                         &&
                         let rec prefix_eq a b =
                           match (a, b) with
                           | [], _ -> true
                           | x :: xs, y :: ys -> String.equal x y && prefix_eq xs ys
                           | _ -> false
                         in
                         prefix_eq m rel)
                       mods
              in
              if not public then Hashtbl.replace b.b_table id { d with public = false };
              let mod_parts =
                match List.rev (String.split_on_char '.' id) with
                | [] -> []
                | _ :: rest -> List.rev rest
              in
              let prefixes =
                match enclosing_prefixes mod_parts with [] -> [ prefix ] | ps -> ps
              in
              Hashtbl.replace b.b_scopes id { prefixes; opens; aliases }
            end)
          (Hashtbl.copy b.b_table)
    )
    mls;
  List.iter
    (fun (path, source) ->
      match parse_with Parse.implementation ~path source with
      | None -> ()
      | Some str ->
        files := (path, str, file_scope ~prefix:(module_prefix_of_path path) str) :: !files)
    (List.filter (fun (p, _) -> Filename.check_suffix p ".ml") users);
  ( {
      table = b.b_table;
      scopes = b.b_scopes;
      includes = b.b_includes;
      exns = b.b_exns;
      exports = List.rev !export_list;
      named_in = Hashtbl.create 512;
    },
    List.rev !files,
    List.rev !errors )

let defs t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.table []
  |> List.sort (fun a b -> String.compare a.id b.id)

let find t id = Hashtbl.find_opt t.table id

let scope_of t id = Hashtbl.find_opt t.scopes id

(* ---------------- resolution ---------------- *)

(* Candidate fully-qualified keys for a dotted reference, most specific
   first. A reference [M1...Mn.v] may start from a module alias on the
   head, and the resulting base path is then tried against every
   qualification context: the enclosing module paths (innermost out —
   this is what makes a sibling shadow an [open]), every [open]ed path
   (itself qualified through the enclosing paths, so [open Error] inside
   lib/robust expands to Robust.Error), and finally unqualified (a
   library's top module referenced directly). *)
let candidates _t scope parts =
  match parts with
  | [] -> []
  | head :: rest ->
    let alias_bases =
      List.filter_map
        (fun (name, target) ->
          if String.equal name head then Some (target @ rest) else None)
        scope.aliases
    in
    let bases = alias_bases @ [ parts ] in
    let contexts =
      scope.prefixes
      @ List.concat_map
          (fun o -> join o :: List.map (fun p -> p ^ "." ^ join o) scope.prefixes)
          scope.opens
    in
    let keys_of bp = List.map (fun c -> c ^ "." ^ join bp) contexts @ [ join bp ] in
    List.concat_map keys_of bases
    |> List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) []
    |> List.rev

(* Expand a candidate key through [include]d modules: P.x where module P
   includes M also means M.x. Depth-limited to keep cycles harmless. *)
let rec include_expansions t depth key =
  if depth = 0 then []
  else
    (* Split key at every module boundary and look for includes. *)
    let parts = String.split_on_char '.' key in
    let n = List.length parts in
    let rec take k l = if k = 0 then [] else match l with [] -> [] | x :: xs -> x :: take (k - 1) xs in
    let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: xs -> drop (k - 1) xs in
    let out = ref [] in
    for i = n - 1 downto 1 do
      let modpath = join (take i parts) in
      match Hashtbl.find_opt t.includes modpath with
      | None -> ()
      | Some included ->
        List.iter
          (fun inc ->
            let k' = join (inc @ drop i parts) in
            out := k' :: (include_expansions t (depth - 1) k' @ !out))
          included
    done;
    !out

let lookup t keys =
  let rec go = function
    | [] -> None
    | k :: rest -> (
      if Hashtbl.mem t.table k then Some k
      else
        match List.find_opt (Hashtbl.mem t.table) (include_expansions t 3 k) with
        | Some k' -> Some k'
        | None -> go rest)
  in
  go keys

let resolve t scope ~locals lid =
  let parts = flatten_lid lid in
  match parts with
  | [ v ] when locals v -> External v
  | _ -> (
    match lookup t (candidates t scope parts) with
    | Some id -> Def id
    | None -> External (join parts))

let exception_name t scope lid =
  let parts = flatten_lid lid in
  let keys = candidates t scope parts in
  match
    List.find_opt
      (fun k ->
        Hashtbl.mem t.exns k
        || List.exists (Hashtbl.mem t.exns) (include_expansions t 3 k))
      keys
  with
  | Some k -> (
    if Hashtbl.mem t.exns k then k
    else
      match List.find_opt (Hashtbl.mem t.exns) (include_expansions t 3 k) with
      | Some k' -> k'
      | None -> k)
  | None -> join parts

(* ---------------- references ---------------- *)

(* Every definition an expression names, with parameters, [let]s and
   pattern variables shadowing module-level names as in {!Effects}. *)
let rec expr_refs t scope ~locals hit e =
  let go = expr_refs t scope ~locals hit in
  let bind pats =
    expr_refs t scope ~locals:(List.concat_map pattern_vars pats @ locals) hit
  in
  let cases =
    List.iter (fun c ->
        let under = bind [ c.pc_lhs ] in
        Option.iter under c.pc_guard;
        under c.pc_rhs)
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match resolve t scope ~locals:(fun v -> List.mem v locals) txt with
    | Def id -> hit id
    | External _ -> ())
  | Pexp_let (rec_flag, bindings, body) ->
    let pats = List.map (fun vb -> vb.pvb_pat) bindings in
    let for_defs = match rec_flag with Asttypes.Recursive -> bind pats | _ -> go in
    List.iter (fun vb -> for_defs vb.pvb_expr) bindings;
    bind pats body
  | Pexp_fun (_, default, pat, body) ->
    Option.iter go default;
    bind [ pat ] body
  | Pexp_function cs -> cases cs
  | Pexp_match (scrut, cs) | Pexp_try (scrut, cs) ->
    go scrut;
    cases cs
  | Pexp_for (pat, lo, hi, _, body) ->
    go lo;
    go hi;
    bind [ pat ] body
  | _ ->
    let it = { Ast_iterator.default_iterator with expr = (fun _ child -> go child) } in
    Ast_iterator.default_iterator.expr it e

let build ?(users = []) sources =
  let t, files, errors = build_graph ~users sources in
  List.iter
    (fun (path, str, scope) ->
      let seen = Hashtbl.create 64 in
      let hit id =
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          let prev = Option.value ~default:[] (Hashtbl.find_opt t.named_in id) in
          Hashtbl.replace t.named_in id (path :: prev)
        end
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ e -> expr_refs t scope ~locals:[] hit e);
        }
      in
      it.structure it str)
    files;
  (t, errors)

let exports t = t.exports

let named_in t id = Option.value ~default:[] (Hashtbl.find_opt t.named_in id)
