(** Per-solve resource budgets: a wall-clock deadline and/or an iteration
    cap on one gene's solve, so a single degenerate row cannot stall a
    worker domain indefinitely.

    A budget is threaded into the inner QP loop through its neutral
    [?on_iteration] callback: one tick per QP pass (the first scan, then
    one per add or drop of an active row, so every QP solve ticks at
    least once). When a cap is crossed the guard raises {!Error.Error}
    [(Budget_exhausted _)], which the solve returns as its typed error.

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

val on_iteration : t -> int -> unit
(** [on_iteration t] is a callback suitable for [Qp.solve ?on_iteration]:
    ignores the iteration index, counts one iteration against the budget
    and raises {!Error.Error} [(Budget_exhausted _)] if either cap is then
    exceeded. The iteration cap fires when the count {e exceeds} the cap,
    so a budget of [n] allows exactly [n] ticks. *)

