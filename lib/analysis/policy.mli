(** The whole-program rules (R10–R12 and R15) checked by
    [deconv-lint check]: a {!Callgraph} + {!Effects} pass enforcing the
    repository's two whole-program invariants — the typed-error contract and
    bit-for-bit jobs-independent parallelism — plus the purity of the
    numeric core, and a use count over the library's exports.

    Sources under a [bin/], [bench/], [examples/] or [perfbench/]
    directory ({!Libpath.in_user_tree}) are the library's {e users}: they
    are read for the names they use and nothing else, so they add no R10
    root, no R11 task and no R12 kernel.

    {b R10 (exception escape).} Against a set of declared roots (by
    default the robust public surface: [Deconv.Pipeline], [Deconv.Batch],
    [Deconv.Bootstrap], [Deconv.Solver.solve_robust], [Deconv.Chaos] —
    plus every public definition of a file that lives outside [lib/],
    so scratch files are checked wholesale): any exception other than
    [Robust.Error.Error] that can propagate out of a root uncaught is a
    finding, anchored at the originating raise site.

    {b R11 (domain safety).} Every closure handed to a [Parallel]
    fan-out entry point is audited: module-level mutation, ambient
    RNG/clock reads, and non-[Robust.Error] raises reachable from the
    task body are findings, anchored at the offending site. Capabilities
    originating inside [lib/parallel] and [lib/obs] (the audited,
    synchronized layers) are exempt.

    {b R12 (numeric-core purity).} Definitions in [lib/numerics],
    [lib/spline] and [lib/optimize] must not reach IO, ambient RNG or
    raw clocks (again excepting origins inside [lib/obs], whose mockable
    clock is the sanctioned instrument).

    {b R15 (unused export).} A [val] of a [lib/] [.mli] whose definition
    no file other than its own [.ml] names — in a definition, a top-level
    [let () =] or any other module-level expression — among the [lib/]
    sources and the users. Tests and other scratch files do not count as
    users. The finding and its suppression sit at the [val]. Checking
    [lib/] without its users therefore flags every export only they
    call: [deconv-lint check] reads them by default.

    Findings honor the same per-site suppression comments (rule id plus
    reason, anchored at the originating site), [--disable] ids and
    output formats as the per-file rules. *)

type check_result = {
  findings : Finding.t list;  (** sorted, suppressions already applied *)
  files : int;  (** number of [.ml] files read, users included *)
  defs : int;  (** definitions in the call graph *)
  iterations : int;  (** effect-fixpoint sweeps until stable *)
  errors : (string * string) list;  (** (path, message) parse/IO errors *)
}

val check_sources :
  ?disabled:string list ->
  ?roots:string list ->
  (string * string) list ->
  check_result
(** Analyze in-memory [(path, source)] pairs (tests use this; [.mli]
    sources contribute export lists). *)

val check_paths :
  ?disabled:string list -> ?roots:string list -> string list -> check_result
(** Analyze files/directories on disk ([deconv-lint check]'s driver). *)
