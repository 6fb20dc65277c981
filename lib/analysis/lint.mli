(** deconv-lint: parse OCaml sources with compiler-libs and enforce the
    numerical-safety rules of {!Rules}.

    Scoping is path-based ({!Libpath}). R2 applies to library code (a
    [lib] segment among the parent directories); R0/R1/R3/R6 apply
    everywhere. The confinement rules R4/R5/R7/R8/R9/R13/R14 ("these
    expressions only under these paths") are rows of one table that
    names, per clause, whether it is lib-only and which [lib/]
    directories or files are exempt; the walker folds over those rows and
    {!scope_text} renders them. *)

type run_result = {
  findings : Finding.t list;  (** sorted by file/line/col *)
  files : int;  (** number of [.ml]/[.mli] files linted *)
  errors : (string * string) list;  (** (path, message): unreadable/unparsable *)
}

val lint_source :
  ?disabled:string list -> path:string -> string -> (Finding.t list, string) result
(** Lint one source buffer. [path] is the logical path used for scoping and
    reporting; it must end in [.ml] or [.mli] (interfaces are parsed for
    syntax only — the rules are expression-level). [disabled] rule ids are
    dropped from the output. [Error] means the buffer failed to parse. *)

val lint_file :
  ?disabled:string list -> ?as_path:string -> string -> (Finding.t list, string) result
(** Read and lint a file on disk. [as_path] overrides the logical path used
    for scoping/reporting (used by tests that lint temp files as if they
    lived under [lib/]). *)

val collect_files : string list -> (string list, string) result
(** Expand files/directories into a sorted list of [.ml]/[.mli] paths,
    skipping [_build] and dot-directories. [Error] on an unreadable path. *)

val run : ?disabled:string list -> string list -> run_result
(** Lint every source file under the given paths. *)

val scope_text : Rules.t -> string
(** Where a per-file rule applies, as [deconv-lint --list-rules] prints
    it. A [Confined] rule's scope is rendered from its confinement rows
    (one clause per distinct scope, joined by ["; "]). *)
