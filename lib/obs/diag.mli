(** Solution-quality diagnostics on the trace stream.

    A [Diag.t] is one quality record — condition number, selected λ and
    effective degrees of freedom, residual whiteness statistics, active
    constraint counts, the λ-candidate profile, the degradation level —
    emitted by the solving layers ({!Solver.solve_robust} and friends in
    lib/core) and consumed by [deconv-cli diagnose] / [trace diff].

    Like every other event, emission is free when no sink is installed:
    [emit] (and the callers' stat computations, which they guard with
    {!enabled}) cost a single branch. The JSONL form
    [{"ev":"diag",...}] round-trips floats exactly (see
    {!Export.float_json}). *)

type t = Export.diag = {
  d_solve : string;
  d_stage : string;
  d_values : (string * float) list;
  d_tags : (string * string) list;
  d_curve : (float * float) array;
}

val enabled : unit -> bool
(** Alias of {!Export.tracing}: whether emitting (and therefore computing)
    diagnostics is worthwhile. Callers hoist expensive statistics — edf,
    condition numbers, residual tests — behind this branch. *)

val with_solve : string -> (unit -> 'a) -> 'a
(** Scope an ambient solve label (e.g. ["gene:12"]) around a solve: diag
    records built inside (without an explicit [?solve]) adopt it. The
    label is domain-local, so parallel batch genes on worker domains
    cannot race each other's labels. *)

val make :
  ?solve:string ->
  stage:string ->
  ?values:(string * float) list ->
  ?tags:(string * string) list ->
  ?curve:(float * float) array ->
  unit ->
  t
(** [solve] defaults to {!solve_label} — ["solve"] on the single-profile
    CLI path, the enclosing {!with_solve} label under a batch. *)

val emit : t -> unit
(** Hand the record to the active sink; one branch when none is installed. *)

val value : t -> string -> float option
val tag : t -> string -> string option

val by_solve : Export.event list -> (string * t list) list
(** Diag records grouped by solve id, groups in first-seen order and
    records within a group in emission order. *)

val stage : t list -> string -> t option
(** First record of the given stage within one solve's group. *)
