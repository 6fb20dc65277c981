(** Cross-run trace comparison: [deconv-cli trace diff A B].

    Two JSONL traces of the same workload are compared on two axes:

    - {b wall time} — per-span-name totals (the [trace summarize --top]
      table) diffed with a noise-aware gate: a multiplicative tolerance
      band, plus an absolute noise floor below which spans are skipped
      rather than gated. Because a trace total is a single wall-clock
      sample (not a fit over many runs), a verdict additionally requires
      the absolute drift to clear a 5 ms delta floor — ms-scale spans
      routinely drift 30–50% between process invocations from caching
      and scheduling alone.
    - {b quality} — per-solve diag records joined by solve id and
      compared statistic-by-statistic, {e exactly}: quality numbers are
      deterministic given the inputs, so any bit-level difference in κ,
      λ, edf, residual statistics or a λ-profile λ value is a
      reportable drift, no tolerance applied. NaN = NaN counts as equal
      (both runs failing to produce a statistic is not a delta). The
      single exception is λ-profile {e scores}, which compare within a
      1e-3 relative band: a candidate score near the interpolation
      boundary conditions like κ of the regularized system, so two
      algebraically equivalent evaluation orders (normal equations vs
      the spectral fast path) legitimately round ~ε·κ apart, while any
      real selector change moves scores by percents.

    Together they let a perf PR prove "faster and bit-identical quality"
    from two trace files alone. *)

type verdict =
  | Regression
  | Improvement
  | Unchanged
  | Skipped of string  (** why this span could not be gated *)

type time_row = {
  span : string;
  calls_a : int;
  calls_b : int;
  total_a : float;  (** summed wall seconds in A; NaN when absent *)
  total_b : float;
  ratio : float;  (** [total_b /. total_a]; NaN when either side absent *)
  verdict : verdict;
}

type quality_row = {
  solve : string;  (** join key, e.g. ["gene:12"] *)
  stat : string;  (** ["stage/field"], e.g. ["solve/kappa"] *)
  value_a : float;
  value_b : float;
}

type t = {
  time : time_row list;  (** A's span order, then spans only in B *)
  quality : quality_row list;  (** only differing statistics *)
  quality_checked : int;  (** statistics compared across both traces *)
  only_a : string list;  (** solve ids with diag records only in A *)
  only_b : string list;
}

val default_tolerance : float
(** 0.30: a span regresses when B's total exceeds A's by more than 30%. *)

val diff : ?tolerance:float -> Export.event list -> Export.event list -> t
(** [diff A B] treats A as the baseline. [tolerance] (default
    {!default_tolerance}) is the relative slowdown tolerated before a time
    regression fires. Raises [Invalid_argument] unless it is finite and
    [>= 0]. *)

val has_regression : t -> bool
(** Any time row gated [Regression]. Quality drift is reported separately
    ({!has_quality_delta}) — it is a correctness signal, not a perf one. *)

(* lint: allow R15 — the quality half of a diff's verdict, read by [output]; the
   quality-diff tests assert it *)
val has_quality_delta : t -> bool

val output : out_channel -> t -> unit
(** Render the time table, the quality deltas and a one-line verdict. *)
