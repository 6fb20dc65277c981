(** Hierarchical timed spans.

    [with_ name f] times [f] and emits a single {!Export.Span} event when
    it returns (normally or by exception). Nesting is implicit: a span
    opened while another is running records it as its parent, so the
    exporter can rebuild the call tree from parent ids alone.

    Domain-safe: ids are process-global (atomic), the running-span stack
    is domain-local. A span opened on a worker domain nests under that
    domain's spans only; a worker-domain root span carries a ["domain"]
    attribute and renders as its own root tree in the summary — the
    defined parent/ordering story under [--jobs > 1].

    When no sink is installed ({!Export.tracing} is [false]) the whole
    mechanism degenerates to one branch: [f] runs with a dummy handle and
    every [set_*] is a no-op — instrumentation left in hot paths costs
    nothing when disabled. *)

type t
(** A handle on the currently running span (or a dummy when disabled). *)

val with_ : ?attrs:(string * Export.value) list -> string -> (t -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span called [name], with optional
    initial attributes. The span closes — and its event is emitted — when
    [f] returns or raises. *)

val set_float : t -> string -> float -> unit
val set_int : t -> string -> int -> unit
val set_str : t -> string -> string -> unit
val set_bool : t -> string -> bool -> unit

val point : t -> string -> iter:int -> (string * float) list -> unit
(** [point sp series ~iter values] emits one {!Export.Point} attached to
    the running span — per-iteration convergence telemetry (KKT residual,
    duality measure, relative change, ...). Unlike attributes, points are
    emitted immediately, in iteration order, and do not accumulate on the
    span. No-op on a disabled handle; guard any expensive computation of
    [values] behind {!enabled}. *)

val enabled : unit -> bool
(** Alias for {!Export.tracing}: [true] iff spans are being recorded.
    Use it to skip computing expensive attribute values. *)

val reset : unit -> unit
(** Clear the calling domain's span stack and restart ids from 1. Test
    helper: makes span ids deterministic within a test case. *)
