(** Domain-safe batch-progress aggregation.

    A [t] counts item completions flowing in concurrently from pool
    worker domains (wired through the [?progress] argument of
    [Batch.solve_all_result] / [Bootstrap.residual_result]), maintains a
    sliding-window throughput estimate and ETA, and tallies failures per
    [Robust.Error] class name. A snapshot can be rendered as a one-line
    status string (the [--progress] stderr line) or a JSON object (the
    future [deconv-serve] scrape payload).

    All mutation is mutex-guarded inside this module — rule R8 keeps raw
    [Mutex] out of [bin/] — and the optional observer callback runs
    outside the lock on an immutable snapshot. *)

type t

and snap = {
  s_total : int;
  s_done : int;  (** completions so far, replays included *)
  s_ok : int;
  s_failed : int;
  s_replayed : int;  (** of [s_done], how many came from a checkpoint *)
  s_elapsed_s : float;
  s_rate : float;
      (** items/sec over the sliding window; falls back to the overall
          average when no completion landed inside the window; [0.0]
          before the first completion *)
  s_eta_s : float;
      (** remaining/rate; [nan] while the rate is unknown; [0.0] once
          done *)
  s_classes : (string * int) list;  (** failure class → count, sorted *)
}

val create : ?window_s:float -> total:int -> unit -> t
(** A fresh aggregator for [total] items, timestamped now. [window_s]
    (default 10) is the sliding-window width for the rate estimate.
    Raises [Invalid_argument] on negative [total] or a non-positive /
    non-finite window. *)

val record_into : t option -> ?cls:string -> ok:bool -> unit -> unit
(** One item finished, counted in an optional aggregator; [cls] tallies
    the failure class when [ok] is false. Safe to call from any domain.
    [None] costs one branch, so instrumented call sites need no
    conditional of their own. *)

val record_replayed : t -> int -> unit
(** Count [n] items restored from a checkpoint as already-done successes
    (kept distinct in [s_replayed] so a resumed run's rate is not
    flattered by work it never did — replays bypass the sliding
    window). *)

val observe : ?min_interval_s:float -> t -> (snap -> unit) -> unit
(** Install the single observer, called with a fresh snapshot after a
    completion, rate-limited to one call per [min_interval_s] (default
    0.2 s; the completion that reaches [total] always fires). The
    callback runs outside the aggregator lock. *)

val finish : t -> unit
(** Force one final observer notification (bypassing the rate limit) so
    the last rendered line reflects the final counts. *)

(* lint: allow R15 — the progress model's read side under [observe]; the telemetry
   suite reads counts and rates through it *)
val snapshot : t -> snap
(** Current state, taken under the lock. *)

val render : snap -> string
(** One status line: ["123/500 (25%)  42.0 items/s  eta 00:09  failed 2
    (qp_stalled:2)"]. No trailing newline. *)

(* lint: allow R15 — the machine-readable form of a progress line, pinned by the
   telemetry suite *)
val to_json : snap -> string
(** The snapshot as one JSON object (schema mirrors [snap] fields). *)
