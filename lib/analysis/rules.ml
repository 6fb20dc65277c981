type scope =
  | Everywhere
  | Lib_only
  | Confined
      (** scoped by the rows of [Lint]'s confinement table *)
  | Check_only
      (** interprocedural: enforced by the whole-program [deconv-lint check]
          pass (callgraph + effect fixpoint), not the per-file walker *)

type t = { id : string; title : string; scope : scope; description : string }

let all =
  [
    {
      id = "R0";
      title = "malformed suppression";
      scope = Everywhere;
      description =
        "A '(* lint: allow ... *)' comment that names no known rule or gives no \
         reason. Suppressions must state why the rule does not apply — silent \
         rule disabling is itself a finding.";
    };
    {
      id = "R1";
      title = "NaN-unsafe float comparison";
      scope = Everywhere;
      description =
        "Polymorphic =, <>, compare, min or max applied to float-looking \
         operands. Polymorphic equality is false for NaN = NaN and the \
         polymorphic min/max silently propagate or drop NaN depending on \
         argument order; deconvolution residuals and condition numbers can be \
         NaN. Use Float.equal / Float.compare / Float.min / Float.max or an \
         explicit tolerance.";
    };
    {
      id = "R2";
      title = "catch-all exception handler";
      scope = Lib_only;
      description =
        "'try ... with _ ->' (or a variable pattern that never re-raises) in \
         library code. Catch-alls swallow typed Robust.Error propagation and \
         programming errors (Assert_failure, Invalid_argument) alike. Match \
         the specific exceptions and re-raise the rest.";
    };
    {
      id = "R3";
      title = "unguarded partial access";
      scope = Everywhere;
      description =
        "List.hd, List.tl or Option.get (which raise on empty input), or \
         Array.get applied to an array literal. Pattern-match instead so the \
         empty case is handled explicitly.";
    };
    {
      id = "R4";
      title = "magic paper constant";
      scope = Confined;
      description =
        "A float literal equal to one of the paper's parameters (phi_sst mean \
         0.15, CV 0.13, the 40/60 SW/ST daughter-volume split, the 150-minute \
         mean cycle) outside lib/cellpop/params.ml. Literals inside array/list \
         data tables are exempt (digitized figure data). Reference the named \
         constant in Params instead, so eq. 11 and the conservation \
         constraints can never drift apart. (CV_cycle = 0.1 is deliberately \
         not in the set: the value is too generic to lint without drowning in \
         tolerance literals.)";
    };
    {
      id = "R5";
      title = "stdout/stderr side effect in library code";
      scope = Confined;
      description =
        "print_string / Printf.printf / prerr_* / Format.printf or a bare \
         stdout/stderr channel in lib/. Library code must return strings or \
         write to an explicit out_channel/formatter supplied by the caller; \
         only bin/ and bench/ own the process's channels.";
    };
    {
      id = "R6";
      title = "ignored result value";
      scope = Everywhere;
      description =
        "'ignore' applied to an expression that syntactically carries a \
         result (an Ok/Error construction, a Result.* call, or a call to a \
         *_result / validate / solve_robust function). Discarding these drops \
         typed Robust.Error values on the floor; match on the result or log \
         the error.";
    };
    {
      id = "R7";
      title = "raw timing call outside lib/obs";
      scope = Confined;
      description =
        "Sys.time, Unix.gettimeofday, Unix.time or Unix.times referenced \
         outside lib/obs. Sys.time is processor time and was once mislabeled \
         wall-clock in Robust.Report.seconds; timing must flow through \
         Obs.Clock.now so it is monotonic, wall-clock, and mockable in tests. \
         Only lib/obs (the clock implementation itself) may read the real \
         clock.";
    };
    {
      id = "R8";
      title = "raw concurrency primitive outside the concurrency layers";
      scope = Confined;
      description =
        "Domain.spawn, Mutex.* or Condition.* referenced outside lib/parallel \
         and lib/obs. Ad-hoc domain spawning breaks the deterministic chunk \
         schedule (results must be bit-identical at every --jobs setting) and \
         ad-hoc locks invite deadlocks against the pool's own mutex. Fan work \
         out through Parallel.parallel_for / parallel_map; only the pool \
         implementation (lib/parallel) and the observability layer's guards \
         (lib/obs) may touch the raw primitives.";
    };
    {
      id = "R9";
      title = "raw output channel on a final path outside the atomic writer";
      scope = Confined;
      description =
        "open_out / open_out_bin / open_out_gen (or Out_channel.open_* / \
         with_open_*) in library code outside lib/dataio/atomic_file.ml. A raw \
         open truncates the destination immediately, so a crash mid-write \
         leaves a torn file — fatal for the checkpoint journal that --resume \
         re-reads, and for kernel dumps and CSV outputs. \
         Route final-path writes through Dataio.Atomic_file.write (same-dir \
         temp file + fsync + rename); only the atomic writer itself may open \
         an output channel.";
    };
    {
      id = "R10";
      title = "exception can escape a typed-error entry point";
      scope = Check_only;
      description =
        "An explicit raise site (raise/failwith/invalid_arg or a declared \
         exception constructor) whose exception can propagate, through the \
         call graph, out of one of the library's declared robust entry points \
         (the Pipeline/Batch/Bootstrap/solve_robust surface) without being \
         caught and converted to Robust.Error. The validate-repair-retry-\
         degrade cascade is a whole-program guarantee: one tunneling raise \
         turns a typed, reportable failure into a crash. Convert at the \
         boundary (Robust.Error.raise_error / Robust.Error.of_exn) or \
         suppress with a reason explaining why the exception cannot actually \
         reach the entry point.";
    };
    {
      id = "R11";
      title = "nondeterminism reachable from a parallel task body";
      scope = Check_only;
      description =
        "Code reachable from a closure handed to Parallel.parallel_for / \
         parallel_map / parallel_map_result writes module-level mutable \
         state, reads the ambient Random generator or a raw clock, or can \
         raise an exception other than Robust.Error. Task bodies run on \
         worker domains: unsynchronized global writes and ambient reads make \
         results depend on domain count and scheduling — exactly what the \
         bit-for-bit jobs-independence tests forbid — and an untyped raise \
         cancels sibling chunks in a scheduling-dependent order. State \
         guarded inside lib/parallel and lib/obs (the audited layers) is \
         exempt.";
    };
    {
      id = "R12";
      title = "impure numeric kernel";
      scope = Check_only;
      description =
        "A function defined in the numeric core (lib/numerics, lib/spline, \
         lib/optimize) can, transitively, perform IO, read the ambient \
         Random generator, or read a raw clock. The hot kernels must stay \
         referentially transparent so they can be memoized, benchmarked, and \
         fanned out across domains freely; observability flows through \
         Obs (whose clock and sinks are the audited exception). Explicit \
         Numerics.Rng substreams passed as arguments are, by construction, \
         not ambient and do not trip this rule.";
    };
    {
      id = "R13";
      title = "raw GC/procfs introspection outside lib/obs";
      scope = Confined;
      description =
        "Gc.stat, Gc.quick_stat, Gc.counters, Gc.allocated_bytes or a \
         \"/proc\" path literal referenced outside lib/obs. Runtime \
         introspection is telemetry and belongs to the resource sampler \
         (Obs.Resource): Gc.stat forces a full major collection wherever it \
         is called, per-domain counters silently measure the wrong domain, \
         and procfs reads are Linux-only — the sampler centralizes the cheap \
         variants and the portability fallback exactly once (same shape as \
         R7's clock rule).";
    };
    {
      id = "R14";
      title = "quality statistic computed outside the quality layers";
      scope = Confined;
      description =
        "A solution-quality statistic primitive (Linalg.condition_spd, \
         gone from the library and still matched so it cannot return; \
         Stats.runs_z, Stats.moment_z, Stats.normality_z) referenced in \
         library code outside lib/numerics and lib/core. Quality statistics \
         are computed in exactly one place — κ and edf in Quality.system, \
         the residual tests in Quality/Diagnostics over the numerics \
         kernels — and leave the library only as Obs.Diag events \
         on the trace stream, where [diagnose] and [trace diff] can see \
         them. A per-module reimplementation (or an ad-hoc Printf of a \
         condition number) forks the definition: the report card and the \
         module would disagree about the same solve. Call into Quality, or \
         emit an Obs.Diag record and let the CLI render it. The rule also \
         confines the factorization internals (Linalg.jacobi_eigen, \
         Linalg.generalized_eigen_spd, Linalg.lower_solve, \
         Linalg.lower_transpose_solve) to lib/numerics and lib/optimize: \
         lib/core consumes decompositions through Optimize.Spectral / \
         Optimize.Ridge, never by calling the eigensolver or triangular \
         substitutions directly — a raw call there would bypass the \
         anchoring, caching and telemetry those wrappers own.";
    };
    {
      id = "R15";
      title = "exported value with no user";
      scope = Check_only;
      description =
        "A value declared in a lib/ .mli that no file in lib/, bin/, bench/, \
         examples/ or perfbench/ names outside its own .ml — in a definition, \
         a top-level 'let () =' or any other module-level expression. Tests \
         do not count as users. An export nothing calls is surface to keep \
         documented, tested and compatible for no program. Drop it from the \
         .mli when only its own module uses it, move a test-only oracle to \
         test/testutil.ml, delete dead code together with its tests, or \
         suppress at the val with the reason it stays.";
    };
  ]

let normalize_id id =
  let up = String.uppercase_ascii (String.trim id) in
  if List.exists (fun r -> String.equal r.id up) all then Some up else None
