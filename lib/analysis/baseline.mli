(** Findings snapshots for incremental adoption of new rules.

    A baseline is a sorted, line-oriented snapshot of known findings.
    Entries are keyed by (rule, file, message) — deliberately {e not} by
    line/column, so unrelated edits that shift code do not invalidate
    the baseline. Comparing a run against a baseline partitions it into
    {e fresh} findings (absent from the baseline: these fail the build)
    and {e stale} entries (baselined findings that no longer occur: the
    baseline should shrink — rewrite it).

    The module is pure string-to-string so the library performs no IO
    (rule R9); [bin/lint.ml] owns reading and writing the file. *)

type entry = { rule : string; file : string; message : string }

type t = entry list

type comparison = {
  fresh : Finding.t list;  (** findings not covered by the baseline *)
  stale : t;  (** baseline entries no current finding matches *)
}

val to_string : Finding.t list -> string
(** Serialize a snapshot: one [rule<TAB>file<TAB>message] line per
    distinct key, sorted. *)

val of_string : string -> t
(** Parse a snapshot; blank lines and [#] comments are ignored,
    malformed lines are dropped. *)

val compare_against : baseline:t -> Finding.t list -> comparison
