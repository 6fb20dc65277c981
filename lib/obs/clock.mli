(** Monotonic wall-clock abstraction.

    Every timing measurement in the tree flows through [now] (lint rule R7
    forbids raw [Sys.time] / [Unix.gettimeofday] calls outside [lib/obs]),
    so tests can substitute a deterministic source and the rest of the code
    never has to care whether "time" is real.

    [Sys.time] is {e processor} time — it stands still while the process
    waits — which is why it is banned: the robust-solver report once
    mislabeled it as wall-clock. The default source is real wall-clock
    time ([Unix.gettimeofday]), and [now] additionally clamps it to be
    non-decreasing so span durations can never come out negative when the
    system clock steps backwards.

    The clock is process-global mutable state; reads are mutex-guarded so
    the monotonicity clamp holds across domains when pool workers
    ([lib/parallel]) time spans concurrently. [with_source]
    remains a main-domain operation: swap sources only while
    no parallel work is in flight. *)

type source = unit -> float
(** A time source: seconds, as an absolute or arbitrary-epoch value. Only
    differences of readings are ever interpreted. *)

val now : unit -> float
(** Read the installed source, clamped to be monotonically non-decreasing
    across calls. *)

val with_source : source -> (unit -> 'a) -> 'a
(** [with_source src f] runs [f] with [src] installed, restoring the
    previous source (and clamp state) afterwards, also on exceptions. *)

val manual : ?start:float -> unit -> source * (float -> unit)
(** [manual ()] is a deterministic test clock: a source that reads a cell
    starting at [start] (default 0), and an [advance] function adding a
    (non-negative) increment to it. *)
