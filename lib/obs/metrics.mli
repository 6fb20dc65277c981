(** Process-wide registry of counters, gauges and histograms.

    Disabled by default: every recording call is a single branch until
    [enable] is called, so instrumentation left in hot paths is free.
    Metrics are registered lazily by name at first use; kinds live in
    separate namespaces (a counter and a gauge may share a name, though
    instrumented code should not do that).

    Like [Span], the registry is process-global — and domain-safe: a
    mutex guards registration and every recording call, so pool workers
    ([lib/parallel]) may emit metrics concurrently. Counter increments
    from concurrent chunks interleave in nondeterministic order but the
    totals are exact. *)

type kind = Counter | Gauge | Histogram

type snapshot = {
  name : string;
  kind : kind;
  fields : (string * float) list;
      (** counters/gauges: [("value", v)]; histograms: count, sum, mean,
          min, max, plus nearest-rank p50/p90/p99 over all samples *)
}

val enable : unit -> unit
val disable : unit -> unit

val incr : ?by:float -> string -> unit
(** Add [by] (default 1) to a counter. *)

val set : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : string -> float -> unit
(** Record one sample into a histogram. All samples are retained (memory
    is O(observations)), so the snapshot's p50/p90/p99 are exact. *)

val snapshot : unit -> snapshot list
(** Current state of every registered metric, sorted by (kind, name). *)

val events : unit -> Export.event list
(** [snapshot] rendered as {!Export.Metric} events, ready to append to a
    trace stream. *)

val output : out_channel -> unit
(** Render the current snapshot as the text metrics table (channel
    supplied by the caller; library code never writes to stdout). *)

val reset : unit -> unit
(** Drop every registered metric (does not change enablement). *)
