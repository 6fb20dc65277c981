(** Whole-program module-qualified def/use graph over the repository's
    OCaml sources, built from the Parsetree alone (no type information).

    Every top-level [let] (including those nested in [module X = struct],
    functor bodies, and recursive groups) becomes a {!def} with a
    fully-qualified id such as ["Numerics.Linalg.solve"]. Qualification
    follows dune's wrapping convention: [lib/<dir>/<file>.ml] defines
    [<LibModule>.<File>] (or [<LibModule>] itself when the file name
    matches the library, as [lib/parallel/parallel.ml] = [Parallel]);
    files outside [lib/] qualify as just [<File>].

    Reference resolution is name-based and deliberately conservative:
    [open]/[include] (both file-level and local), module aliases
    ([module L = Linalg]), functor bodies (members of [F(X)] resolve into
    [F]'s body), and local shadowing (a [let]-bound or parameter name
    hides the same-named sibling definition) are all handled; anything
    that cannot be resolved to a definition in the graph is reported as
    an {!target.External} so the effect analysis can apply its intrinsic
    table. *)

type target =
  | Def of string  (** id of a definition in this graph *)
  | External of string  (** dotted name of an unresolved reference *)

type def = {
  id : string;  (** fully qualified, e.g. "Deconv.Solver.solve_robust" *)
  path : string;  (** source file, as given to {!build} *)
  line : int;
  col : int;
  public : bool;
      (** exported: listed in the paired [.mli] (recursively for nested
          module signatures), or everything when no [.mli] exists *)
  body : Parsetree.expression;
}

(** Per-definition resolution scope: the enclosing module path plus the
    opens, aliases and includes visible at the definition site. *)
type scope

type t

(** A [val] of a [.mli]: the value's qualified id and where it is
    declared. *)
type export = { value : string; mli : string; line : int; col : int }

val build :
  ?users:(string * string) list -> (string * string) list -> t * (string * string) list
(** [build sources] parses every [(path, source)] pair ([.ml] defines
    definitions; a [.mli] contributes the export list of its [.ml]) and
    returns the graph plus [(path, message)] parse errors. Files that do
    not parse contribute no definitions but do not abort the build.
    [users] are [.ml] files read for their references only (see
    {!named_in}): they add no definitions, so module-name clashes among
    them ([bin/main.ml], [bench/main.ml]) are harmless. *)

val exports : t -> export list
(** Every [val] of every parsed [.mli], nested module signatures
    included. *)

val named_in : t -> string -> string list
(** The files (sources and users alike) whose text names the definition
    anywhere: a definition body, a top-level [let () =] or any other
    module-level expression. The definition's own file is included when
    it names itself. *)

val defs : t -> def list
(** All definitions, sorted by id. *)

val find : t -> string -> def option

val scope_of : t -> string -> scope option
(** The resolution scope of a definition id. *)

val exception_name : t -> scope -> Longident.t -> string
(** Canonical name of an exception constructor as referenced from
    [scope]: resolved against the graph's declared exceptions (so
    [Error] inside [lib/robust/error.ml] and [Robust.Error.Error] from
    outside both canonicalize to ["Robust.Error.Error"]); unresolved
    constructors keep their dotted spelling. *)

val resolve :
  t -> scope -> locals:(string -> bool) -> Longident.t -> target
(** Resolve a value reference. [locals] answers whether a bare name is
    bound in the expression's local scope (parameters, [let]s, pattern
    variables) — such names shadow module-level definitions. *)

val pattern_vars : Parsetree.pattern -> string list
(** Every variable bound by a pattern (shared with the effect walker so
    both layers agree on what shadows what). *)

val flatten_lid : Longident.t -> string list
(** ["A.B.c"] as [["A"; "B"; "c"]]; functor applications keep only the
    functor part. *)
