(** The registry of numerical-safety rules enforced by deconv-lint.

    Rule ids are stable strings ("R0".."R14") used in findings, in
    [--disable] flags and in suppression comments. *)

type scope =
  | Everywhere  (** enforced in every linted file *)
  | Lib_only  (** enforced only for files under a [lib/] directory *)
  | Confined
      (** "allowed only under these paths": scoped by the rows of
          {!Lint}'s confinement table, which both the walker and
          [--list-rules] ({!Lint.scope_text}) read *)
  | Check_only
      (** interprocedural: enforced by the whole-program [deconv-lint check]
          pass ({!Policy}), not by the per-file expression walker *)

type t = {
  id : string;
  title : string;  (** short label for listings *)
  scope : scope;
  description : string;  (** what it catches and why it matters *)
}

val all : t list
(** Every rule, in id order. *)

val find : string -> t option
(** Lookup by id, case-insensitive. *)

val normalize_id : string -> string option
(** ["r4"] -> [Some "R4"]; [None] for unknown ids. *)
