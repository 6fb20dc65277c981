(** Event model and sinks for the observability layer.

    Instrumented code ([Span], [Metrics]) produces [event] values; where
    they go is decided once per process by [install]ing a sink. With no
    sink installed (the default) nothing is recorded and instrumentation
    costs a single branch. Library code never touches stdout/stderr (rule
    R5): the JSONL sink writes to a caller-supplied channel and the text
    summary renders to a caller-supplied channel.

    JSONL schema (one JSON object per line):
    - spans: [{"ev":"span","id":4,"parent":2,"name":"qp.solve",
      "start":0.25,"stop":0.31,"attrs":{"iterations":12,...}}] — [parent]
      is [null] for roots; attribute values are numbers, strings or bools.
    - metrics: [{"ev":"metric","name":"qp.iterations","kind":"counter",
      "fields":{"value":431.0}}].

    Non-finite floats are not representable in JSON; they serialize as the
    strings ["nan"], ["inf"] and ["-inf"]. Metric fields (typed float)
    parse back exactly; a non-finite span {e attribute} reads back as the
    corresponding [Str] — round-tripping is exact for finite values. *)

type value = Float of float | Int of int | Str of string | Bool of bool

type span = {
  id : int;  (** unique per process run, 1-based *)
  parent : int option;  (** enclosing span id; [None] for roots *)
  name : string;
  start_s : float;  (** [Clock.now] at open *)
  stop_s : float;  (** [Clock.now] at close *)
  attrs : (string * value) list;
}

type metric = {
  metric_name : string;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  fields : (string * float) list;
      (** e.g. [("value", v)] for counters/gauges; count/sum/mean/min/max
          for histograms *)
}

type point = {
  series : string;  (** e.g. ["qp.iteration"] — names the convergence series *)
  span_id : int option;  (** enclosing span id, so points group per solve *)
  iter : int;  (** iteration index within the solve, 1-based *)
  values : (string * float) list;
      (** e.g. KKT residual, duality measure mu, step lengths *)
}
(** One sample of an iterative process: convergence telemetry. Serialized
    as [{"ev":"point","series":...,"span":...,"iter":...,"fields":{...}}]. *)

type sample = {
  s_kind : string;
      (** what was sampled: ["resource"] for the {!Resource} heartbeat,
          ["chunk"] for pool chunk timings *)
  t_s : float;  (** [Clock.now] when the sample was taken *)
  values : (string * float) list;
}
(** One observation of ambient runtime state, outside any span: resource
    heartbeats and pool chunk telemetry. Serialized as
    [{"ev":"sample","kind":...,"t":...,"fields":{...}}]. *)

type diag = {
  d_solve : string;
      (** which solve the record belongs to: ["gene:12"] under a batch,
          ["solve"] for a single-profile run — the join key for
          [trace diff] *)
  d_stage : string;
      (** emitting stage: ["solve"] (the per-solve quality record from
          {!Solver.solve_robust}), ["lambda"] (candidate profile),
          ["qp"], ["rl"] *)
  d_values : (string * float) list;
      (** scalar quality statistics — κ, λ, edf, RSS, runs-test z, ... *)
  d_tags : (string * string) list;
      (** string facts: selector method, outcome *)
  d_curve : (float * float) array;
      (** λ-candidate profile as (lambda, score) pairs; empty for stages
          that carry no curve *)
}
(** One solution-quality record. Serialized as
    [{"ev":"diag","solve":...,"stage":...,"fields":{...},"tags":{...},
    "curve":[[l,s],...]}] with the same exact float round-trip as
    {!sample} fields. *)

type event =
  | Span of span
  | Metric of metric
  | Point of point
  | Sample of sample
  | Diag of diag

(** {1 Sinks} *)

type sink

val memory : unit -> sink * (unit -> event list)
(** A recording sink and a function returning everything recorded so far,
    in emission order. *)

val jsonl : out_channel -> sink
(** Writes one JSON object per event line to the given channel. The
    channel stays owned by the caller; [flush] flushes it, nothing closes
    it. *)

val install : sink -> unit
(** Route subsequent events to this sink (replacing any previous one). *)

val uninstall : unit -> unit
(** Flush and remove the active sink; tracing becomes disabled again. *)

val tracing : unit -> bool
(** [true] iff a sink is installed. *)

val emit : event -> unit
(** Hand an event to the active sink; no-op when none is installed. *)

(** {1 Serialization} *)

val to_json : event -> string
(** One JSON object, no trailing newline. *)

val of_json : string -> (event, string) result
(** Parse one line produced by [to_json]. *)

val read_jsonl : in_channel -> (event list, string) result
(** Read a whole JSONL stream (blank lines skipped); stops at the first
    malformed line with an error naming its line number. *)

(** {1 Rendering} *)

val output_summary : out_channel -> event list -> unit
(** Render a span tree — siblings aggregated by name, with call counts and
    total/self wall time — followed by a metrics section, to an explicit
    channel. Orphan spans (parent id absent from the stream) are promoted
    to roots. *)

val output_metrics : out_channel -> metric list -> unit
(** Just the metrics section of [output_summary]. *)

val output_top : out_channel -> top:int -> event list -> unit
(** Flat aggregate of the spans in the stream: one row per span name with
    call count, total and self wall time, sorted by total descending.
    [top] bounds the number of rows ([<= 0] prints all). *)

val aggregate_span_rows : event list -> (string * int * float * float) list
(** Per-span-name totals over the stream's spans:
    [(name, calls, total_s, self_s)] sorted by total descending — the
    table behind [output_top], exposed so trace-comparison tooling can
    diff two streams without re-deriving parentage. *)

(** {1 Generic JSON}

    The recursive-descent parser behind [of_json], exposed so other
    modules (e.g. the batch checkpoint journal) can parse their own
    single-document JSON lines without a new dependency. Numbers stay
    raw strings until the caller knows whether an int or float is
    wanted. *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of string
  | J_bool of bool
  | J_null

val json_of_string : string -> (json, string) result
(** Parse one complete JSON document (trailing garbage is an error). *)

val json_escape : string -> string
(** Escape a string for embedding between double quotes in JSON output. *)

val float_json : float -> string
(** Render a float as a JSON token: round-trip exact for finite values;
    non-finite values become the strings ["nan"] / ["inf"] / ["-inf"]. *)
