open Parsetree

type origin = { file : string; line : int; col : int }

module Names = Map.Make (String)
module Sset = Set.Make (String)

type caps = {
  raises : origin Names.t;
  mutates : origin option;
  rng : origin option;
  clock : origin option;
  io : origin option;
}

type task = { owner : string; site : origin; caps : caps }

type result = {
  caps_of : string -> caps option;
  tasks : task list;
  iterations : int;
}

let robust_error = "Robust.Error.Error"
let dynamic_raise = "<dynamic>"

let empty =
  { raises = Names.empty; mutates = None; rng = None; clock = None; io = None }

(* ---------------- capability lattice ops ---------------- *)

let keep_first a b = match a with Some _ -> a | None -> b

let union a b =
  {
    raises = Names.union (fun _ x _ -> Some x) a.raises b.raises;
    mutates = keep_first a.mutates b.mutates;
    rng = keep_first a.rng b.rng;
    clock = keep_first a.clock b.clock;
    io = keep_first a.io b.io;
  }

let same_shape a b =
  Names.cardinal a.raises = Names.cardinal b.raises
  && Names.for_all (fun k _ -> Names.mem k b.raises) a.raises
  && Option.is_some a.mutates = Option.is_some b.mutates
  && Option.is_some a.rng = Option.is_some b.rng
  && Option.is_some a.clock = Option.is_some b.clock
  && Option.is_some a.io = Option.is_some b.io

(* What an enclosing stack of [try]s catches around a program point. *)
type mask = { all : bool; caught : Sset.t }

let no_mask = { all = false; caught = Sset.empty }

let mask_union m ~all ~caught =
  { all = m.all || all; caught = Sset.union m.caught caught }

let apply_mask m caps =
  if m.all then { caps with raises = Names.empty }
  else { caps with raises = Names.filter (fun k _ -> not (Sset.mem k m.caught)) caps.raises }

(* ---------------- intrinsics ---------------- *)

let clock_names =
  [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Unix.sleep"; "Unix.sleepf" ]

let io_names =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes"; "read_line"; "read_int";
    "read_int_opt"; "read_float"; "read_float_opt"; "output_string"; "output_char";
    "output_bytes"; "output_byte"; "output_value"; "output_binary_int"; "input_line";
    "input_char"; "input_value"; "input_byte"; "really_input"; "really_input_string";
    "open_out"; "open_out_bin"; "open_out_gen"; "open_in"; "open_in_bin"; "open_in_gen";
    "close_out"; "close_in"; "flush"; "flush_all"; "stdout"; "stderr"; "stdin";
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf"; "Format.eprintf";
    "Format.fprintf"; "Format.print_string"; "Format.print_newline"; "Sys.command";
    "Sys.remove"; "Sys.rename"; "Sys.readdir"; "Sys.getenv"; "Sys.getenv_opt";
    "Sys.file_exists"; "Sys.is_directory"; "Sys.chdir"; "Sys.getcwd"; "Sys.mkdir";
    "Filename.temp_file"; "Filename.open_temp_file";
  ]

let io_prefixes = [ "In_channel."; "Out_channel."; "Unix." ]

let raising_intrinsics =
  [
    ("failwith", "Failure");
    ("Stdlib.failwith", "Failure");
    ("invalid_arg", "Invalid_argument");
    ("Stdlib.invalid_arg", "Invalid_argument");
    ("Robust.Error.raise_error", robust_error);
    ("Error.raise_error", robust_error);
  ]

(* Mutating stdlib calls whose *first* argument is the mutated value: if
   that argument is a reference to a module-level definition, the call
   writes global state. *)
let mutator_names =
  [
    ":="; "incr"; "decr"; "Array.set"; "Array.unsafe_set"; "Array.fill"; "Bytes.set";
    "Bytes.unsafe_set"; "Bytes.fill"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove";
    "Hashtbl.reset"; "Hashtbl.clear"; "Atomic.set"; "Atomic.exchange";
    "Atomic.compare_and_set"; "Atomic.incr"; "Atomic.decr"; "Queue.add"; "Queue.push";
    "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer"; "Stack.push"; "Stack.pop";
    "Stack.clear"; "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.clear"; "Buffer.reset"; "Buffer.truncate";
  ]

(* Domain.spawn is in the list because a spawned body IS a task body:
   the sampler domain in lib/obs and the pool workers in lib/parallel
   are the audited spawners, and anything else (R8 already confines the
   primitive) gets the same nondeterminism audit as a pool task. *)
let fanout_names =
  [
    "Parallel.parallel_for"; "Parallel.parallel_map"; "Parallel.parallel_map_result";
    "Parallel.Pool.parallel_for"; "Parallel.Pool.parallel_map";
    "Parallel.Pool.parallel_map_result"; "Domain.spawn";
  ]

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.equal (String.sub s 0 n) prefix

(* ---------------- extraction ---------------- *)

type node = { direct : caps; edges : (string * mask) list }

type task_meta = { t_owner : string; t_site : origin; t_node : string }

type st = {
  graph : Callgraph.t;
  scope : Callgraph.scope;
  path : string;
  mutable acc_raises : origin Names.t;
  mutable acc_mutates : origin option;
  mutable acc_rng : origin option;
  mutable acc_clock : origin option;
  mutable acc_io : origin option;
  mutable acc_edges : (string * mask) list;
  nodes : (string, node) Hashtbl.t;
  tasks : task_meta list ref;
  owner : string;
}

let origin_of st loc =
  let pos = loc.Location.loc_start in
  {
    file = st.path;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1;
  }

let snapshot st =
  {
    raises = st.acc_raises;
    mutates = st.acc_mutates;
    rng = st.acc_rng;
    clock = st.acc_clock;
    io = st.acc_io;
  }

let add_raise st mask name o =
  let masked =
    if String.equal name dynamic_raise then mask.all
    else mask.all || Sset.mem name mask.caught
  in
  if (not masked) && not (Names.mem name st.acc_raises) then
    st.acc_raises <- Names.add name o st.acc_raises

let add_cap st what o =
  match what with
  | `Mutates -> if st.acc_mutates = None then st.acc_mutates <- Some o
  | `Rng -> if st.acc_rng = None then st.acc_rng <- Some o
  | `Clock -> if st.acc_clock = None then st.acc_clock <- Some o
  | `Io -> if st.acc_io = None then st.acc_io <- Some o

let intrinsics st mask name o =
  (match List.assoc_opt name raising_intrinsics with
  | Some exn -> add_raise st mask exn o
  | None -> ());
  if List.exists (String.equal name) clock_names then add_cap st `Clock o
  else if List.exists (String.equal name) io_names then add_cap st `Io o
  else if starts_with ~prefix:"Random." name then add_cap st `Rng o
  else if List.exists (fun p -> starts_with ~prefix:p name) io_prefixes then
    add_cap st `Io o

let ident_of e = match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

let dotted lid = String.concat "." (Callgraph.flatten_lid lid)

(* The canonical name a [try]/raise constructor resolves to. *)
let exn_name st lid = Callgraph.exception_name st.graph st.scope lid

(* Classify the unguarded handler cases of a try/match-exception:
   (catches_all, caught constructor names, re-raising variable names). *)
let classify_handlers st cases =
  let all = ref false and caught = ref Sset.empty and reraise = ref Sset.empty in
  let rec pat_exns p =
    match p.ppat_desc with
    | Ppat_construct (lid, _) -> [ exn_name st lid.Location.txt ]
    | Ppat_or (a, b) -> pat_exns a @ pat_exns b
    | Ppat_alias (inner, _) | Ppat_constraint (inner, _) -> pat_exns inner
    | _ -> []
  in
  let rec catch_all_var p =
    match p.ppat_desc with
    | Ppat_any -> Some None
    | Ppat_var v -> Some (Some v.Location.txt)
    | Ppat_alias (inner, v) -> (
      match catch_all_var inner with Some _ -> Some (Some v.Location.txt) | None -> None)
    | Ppat_constraint (inner, _) -> catch_all_var inner
    | _ -> None
  in
  let reraises var body =
    let found = ref false in
    let expr self e =
      (match e.pexp_desc with
      | Pexp_apply (f, args) -> (
        match ident_of f with
        | Some (Longident.Lident ("raise" | "raise_notrace"))
        | Some (Longident.Ldot (Longident.Lident "Printexc", "raise_with_backtrace")) -> (
          match args with
          | (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) :: _
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
  in
  List.iter
    (fun case ->
      match case.pc_guard with
      | Some _ -> () (* a guarded handler may decline: it masks nothing *)
      | None -> (
        let p =
          match case.pc_lhs.ppat_desc with
          | Ppat_exception inner -> inner
          | _ -> case.pc_lhs
        in
        match catch_all_var p with
        | Some var -> (
          match var with
          | Some v when reraises v case.pc_rhs ->
            (* catch-everything that re-raises: a pass-through, masks
               nothing; remember the variable so its own [raise v] is
               not double-counted as a dynamic raise *)
            reraise := Sset.add v !reraise
          | _ -> all := true)
        | None -> List.iter (fun n -> caught := Sset.add n !caught) (pat_exns p)))
    cases;
  (!all, !caught, !reraise)

let rec walk st (locals : Sset.t) (reraise : Sset.t) (mask : mask) e =
  let recurse = walk st locals reraise mask in
  let reference lid loc =
    match Callgraph.resolve st.graph st.scope ~locals:(fun v -> Sset.mem v locals) lid with
    | Callgraph.Def id -> st.acc_edges <- (id, mask) :: st.acc_edges
    | Callgraph.External name -> intrinsics st mask name (origin_of st loc)
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> reference txt e.pexp_loc
  | Pexp_apply (f, args) -> handle_apply st locals reraise mask e f args
  | Pexp_try (body, cases) ->
    let all, caught, reraise_vars = classify_handlers st cases in
    walk st locals reraise (mask_union mask ~all ~caught) body;
    List.iter
      (fun case ->
        let bound = Sset.of_list (Callgraph.pattern_vars case.pc_lhs) in
        let locals' = Sset.union bound locals in
        let reraise' = Sset.union (Sset.inter reraise_vars bound) reraise in
        Option.iter (walk st locals' reraise' mask) case.pc_guard;
        walk st locals' reraise' mask case.pc_rhs)
      cases
  | Pexp_match (scrut, cases) ->
    let exn_cases =
      List.filter
        (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
        cases
    in
    let all, caught, reraise_vars =
      if exn_cases = [] then (false, Sset.empty, Sset.empty)
      else classify_handlers st exn_cases
    in
    walk st locals reraise (mask_union mask ~all ~caught) scrut;
    List.iter
      (fun case ->
        let bound = Sset.of_list (Callgraph.pattern_vars case.pc_lhs) in
        let locals' = Sset.union bound locals in
        let reraise' = Sset.union (Sset.inter reraise_vars bound) reraise in
        Option.iter (walk st locals' reraise' mask) case.pc_guard;
        walk st locals' reraise' mask case.pc_rhs)
      cases
  | Pexp_let (rec_flag, bindings, body) ->
    let bound =
      Sset.of_list (List.concat_map (fun vb -> Callgraph.pattern_vars vb.pvb_pat) bindings)
    in
    let inner = Sset.union bound locals in
    let for_defs = match rec_flag with Asttypes.Recursive -> inner | _ -> locals in
    List.iter (fun vb -> walk st for_defs reraise mask vb.pvb_expr) bindings;
    walk st inner reraise mask body
  | Pexp_fun (_, default, pat, body) ->
    Option.iter recurse default;
    walk st (Sset.union (Sset.of_list (Callgraph.pattern_vars pat)) locals) reraise mask body
  | Pexp_function cases ->
    List.iter
      (fun case ->
        let locals' = Sset.union (Sset.of_list (Callgraph.pattern_vars case.pc_lhs)) locals in
        Option.iter (walk st locals' reraise mask) case.pc_guard;
        walk st locals' reraise mask case.pc_rhs)
      cases
  | Pexp_for (pat, e1, e2, _, body) ->
    recurse e1;
    recurse e2;
    walk st (Sset.union (Sset.of_list (Callgraph.pattern_vars pat)) locals) reraise mask body
  | Pexp_setfield (target, _, value) ->
    (match ident_of target with
    | Some lid -> (
      match
        Callgraph.resolve st.graph st.scope ~locals:(fun v -> Sset.mem v locals) lid
      with
      | Callgraph.Def _ -> add_cap st `Mutates (origin_of st e.pexp_loc)
      | Callgraph.External _ -> ())
    | None -> recurse target);
    recurse value
  | Pexp_assert inner ->
    (* Assert_failure is a programming invariant, not a tracked effect;
       still walk the condition for calls it makes. *)
    recurse inner
  | _ ->
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk st locals reraise mask child);
      }
    in
    Ast_iterator.default_iterator.expr it e

and handle_apply st locals reraise mask e f args =
  let resolve_value lid =
    Callgraph.resolve st.graph st.scope ~locals:(fun v -> Sset.mem v locals) lid
  in
  let f_name =
    match ident_of f with
    | Some lid -> (
      match resolve_value lid with
      | Callgraph.Def id -> Some (`Def (id, lid))
      | Callgraph.External n -> Some (`External (n, lid)))
    | None -> None
  in
  let walk_args () = List.iter (fun (_, a) -> walk st locals reraise mask a) args in
  let raise_like () =
    match args with
    | (_, arg) :: rest ->
      (match arg.pexp_desc with
      | Pexp_construct (lid, payload) ->
        add_raise st mask (exn_name st lid.Location.txt) (origin_of st arg.pexp_loc);
        Option.iter (walk st locals reraise mask) payload
      | Pexp_ident { txt = Longident.Lident v; _ }
        when Sset.mem v reraise ->
        (* the pass-through re-raise of a caught exception: already
           accounted by the enclosing handler's (non-)mask *)
        ()
      | _ ->
        add_raise st mask dynamic_raise (origin_of st arg.pexp_loc);
        walk st locals reraise mask arg);
      List.iter (fun (_, a) -> walk st locals reraise mask a) rest
    | [] -> ()
  in
  match ident_of f with
  | Some (Longident.Lident ("raise" | "raise_notrace"))
  | Some (Longident.Ldot (Longident.Lident "Stdlib", ("raise" | "raise_notrace")))
  | Some (Longident.Ldot (Longident.Lident "Printexc", "raise_with_backtrace")) ->
    raise_like ()
  | _ -> (
    (* Mutation of module-level state through a known mutator. *)
    let mutator_name =
      match f_name with
      | Some (`External (n, _)) when List.exists (String.equal n) mutator_names -> Some ()
      | _ -> (
        match ident_of f with
        | Some lid when List.exists (String.equal (dotted lid)) mutator_names -> Some ()
        | _ -> None)
    in
    (match (mutator_name, args) with
    | Some (), (_, target) :: _ -> (
      match ident_of target with
      | Some lid -> (
        match resolve_value lid with
        | Callgraph.Def _ -> add_cap st `Mutates (origin_of st e.pexp_loc)
        | Callgraph.External _ -> ())
      | None -> ())
    | _ -> ());
    (* Fan-out onto the domain pool: the function argument becomes a
       synthetic task node audited by rule R11. *)
    let fanout =
      match f_name with
      | Some (`Def (id, _)) -> List.exists (String.equal id) fanout_names
      | Some (`External (n, _)) -> List.exists (String.equal n) fanout_names
      | None -> false
    in
    if fanout then begin
      (match List.rev args with
      | (Asttypes.Nolabel, task_body) :: _ ->
        let site = origin_of st e.pexp_loc in
        let node_id =
          Printf.sprintf "%s!task@%d:%d" st.owner site.line site.col
        in
        let sub =
          {
            st with
            acc_raises = Names.empty;
            acc_mutates = None;
            acc_rng = None;
            acc_clock = None;
            acc_io = None;
            acc_edges = [];
            owner = node_id;
          }
        in
        (* The task runs on a worker domain: enclosing try/with in the
           submitter does not make its failure deterministic, so the
           task's own mask starts empty. *)
        walk sub locals reraise no_mask task_body;
        Hashtbl.replace st.nodes node_id { direct = snapshot sub; edges = sub.acc_edges };
        st.tasks := { t_owner = st.owner; t_site = site; t_node = node_id } :: !(st.tasks)
      | _ -> ())
    end;
    (* The callee reference itself, then the arguments. *)
    (match ident_of f with
    | Some lid -> (
      match resolve_value lid with
      | Callgraph.Def id -> st.acc_edges <- (id, mask) :: st.acc_edges
      | Callgraph.External name -> intrinsics st mask name (origin_of st f.pexp_loc))
    | None -> walk st locals reraise mask f);
    walk_args ())

(* ---------------- analysis driver ---------------- *)

let analyze graph =
  let nodes : (string, node) Hashtbl.t = Hashtbl.create 512 in
  let tasks = ref [] in
  List.iter
    (fun (d : Callgraph.def) ->
      match Callgraph.scope_of graph d.Callgraph.id with
      | None -> ()
      | Some scope ->
        let st =
          {
            graph;
            scope;
            path = d.Callgraph.path;
            acc_raises = Names.empty;
            acc_mutates = None;
            acc_rng = None;
            acc_clock = None;
            acc_io = None;
            acc_edges = [];
            nodes;
            tasks;
            owner = d.Callgraph.id;
          }
        in
        walk st Sset.empty Sset.empty no_mask d.Callgraph.body;
        Hashtbl.replace nodes d.Callgraph.id
          { direct = snapshot st; edges = st.acc_edges })
    (Callgraph.defs graph);
  (* Transitive fixpoint: effects flow from callee to caller, raises
     filtered by the catch mask at each call site. *)
  let current : (string, caps) Hashtbl.t = Hashtbl.create 512 in
  Hashtbl.iter (fun id node -> Hashtbl.replace current id node.direct) nodes;
  let sweeps = ref 0 in
  let changed = ref true in
  while !changed && !sweeps < 1000 do
    changed := false;
    incr sweeps;
    Hashtbl.iter
      (fun id node ->
        let merged =
          List.fold_left
            (fun acc (callee, m) ->
              match Hashtbl.find_opt current callee with
              | Some c -> union acc (apply_mask m c)
              | None -> acc)
            node.direct node.edges
        in
        let prev = try Hashtbl.find current id with Not_found -> empty in
        if not (same_shape prev merged) then begin
          Hashtbl.replace current id (union prev merged);
          changed := true
        end)
      nodes
  done;
  {
    caps_of = (fun id -> Hashtbl.find_opt current id);
    tasks =
      List.rev_map
        (fun tm ->
          {
            owner = tm.t_owner;
            site = tm.t_site;
            caps =
              (match Hashtbl.find_opt current tm.t_node with
              | Some c -> c
              | None -> empty);
          })
        !tasks;
    iterations = !sweeps;
  }
