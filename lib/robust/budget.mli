(** Per-solve resource budgets: a wall-clock deadline and/or an iteration
    cap shared across one gene's whole degradation cascade, so a single
    degenerate row cannot stall a worker domain indefinitely.

    A budget is threaded into the inner QP / Richardson–Lucy loops through
    their neutral [?on_iteration] callbacks: one tick per QP pass (the
    first scan, then one per add or drop of an active row, so every QP
    solve ticks at least once) and per Richardson–Lucy update. When a cap
    is crossed the guard raises {!Error.Error} [(Budget_exhausted _)],
    which the cascade treats as non-recoverable (it stops instead of
    trying a cheaper stage with the clock already blown).

    The iteration cap is deterministic. The wall-clock deadline reads
    {!Obs.Clock.now}, so it is only deterministic under a manual clock —
    tests that assert bit-for-bit results must cap iterations, not time. *)

type t

val create : ?max_seconds:float -> ?max_iterations:int -> unit -> t
(** Start a budget now (clock read at creation). [max_seconds] must be
    finite and positive; [max_iterations >= 1]. Omitted caps are
    unlimited. Raises {!Error.Error} ([Invalid_input]) on out-of-range
    caps, like every other entry point of the robust layer. *)

val unlimited : unit -> t
(** A budget that never fires. *)

val check : t -> unit
(** Raise {!Error.Error} [(Budget_exhausted _)] if either cap is
    exceeded; otherwise return. The iteration cap fires when the count
    {e exceeds} the cap, so a budget of [n] allows exactly [n] ticks. *)

val on_iteration : t -> int -> unit
(** [on_iteration t] is a callback suitable for [Qp.solve ?on_iteration]
    and [Richardson_lucy.deconvolve ?on_iteration]: ignores the iteration
    index, counts one iteration against the shared budget and {!check}s
    it. *)

