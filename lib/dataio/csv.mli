(** Minimal CSV reading/writing (no quoting — numeric tables only).

    Readers report malformed input as a structured {!error} (1-based line
    and column of the offending field) — never a bare [Failure]. *)

open Numerics

type error = {
  line : int;  (** 1-based physical line number in the file *)
  column : int;  (** 1-based field index within the line *)
  message : string;
}

val error_to_string : error -> string

val write_columns : path:string -> header:string list -> columns:Vec.t list -> unit
(** Write a header line (when non-empty) and one row per index of the
    columns, which must all have equal length. *)

val read_columns_result : path:string -> (string list * Vec.t list, error) result
(** Returns [(header, columns)]. The first line is taken as a header when
    any of its fields fails to parse as a number; otherwise the header is
    empty. Every data row must have the same number of fields and every
    field must parse as a number, else the [error] pinpoints the first
    offending line and column. *)

