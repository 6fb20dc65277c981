(** A hand-rolled domain pool for the deconvolution pipeline's
    embarrassingly parallel layers (Monte Carlo population simulation,
    λ candidate sweeps, bootstrap/batch fan-out).

    {b Determinism contract.} The pool never makes scheduling visible to
    the caller: [parallel_for] partitions [0 .. n-1] into contiguous
    chunks whose boundaries depend only on [n] and [chunk] — never on the
    number of domains — and [parallel_map] writes each result into its own
    slot. A caller that derives one [Rng.split] substream per chunk (in
    ascending chunk order, before dispatch) therefore produces bit-for-bit
    identical results for every jobs setting, including [--jobs 1], which
    runs the same chunk schedule inline without spawning anything.

    {b Nesting.} A [parallel_for]/[parallel_map] issued while the same
    pool is already executing a job (from a worker domain, or reentrantly
    from the submitting domain) falls back to running its chunks inline,
    sequentially — no deadlock, same results.

    {b Exceptions.} The first exception raised by any chunk cancels the
    job's unclaimed chunks, is captured with its backtrace, and is
    re-raised in the submitting domain once in-flight chunks have
    drained. The pool stays healthy and reusable afterwards. *)

(** Injected chunk telemetry. This library is zero-dependency (and rule
    R7 keeps raw clocks out of it), so it cannot time its own chunks;
    instead the CLI installs a probe built from [Obs.Clock] /
    [Obs.Export] when tracing is on, and every executed chunk — pooled
    or inline — is bracketed with [now] readings and reported through
    [record]. With no probe installed a chunk costs one extra
    load+branch. [install]/[uninstall] must happen while no job is in
    flight; the callbacks run on worker domains concurrently and must be
    domain-safe and non-raising (a raise here is indistinguishable from
    a chunk failure). *)
module Probe : sig
  type t = {
    now : unit -> float;
    record : domain:int -> lo:int -> hi:int -> start_s:float -> stop_s:float -> unit;
  }

  val install : t -> unit
  val uninstall : unit -> unit

end

module Pool : sig
  type t

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val create : domains:int -> t
  (** [create ~domains] makes a pool that executes jobs on [domains]
      domains in total: the submitting domain participates, and
      [domains - 1] worker domains are spawned lazily on first use.
      [domains = 1] never spawns and runs everything inline. Requires
      [domains >= 1]. *)

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val domains : t -> int

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val shutdown : t -> unit
  (** Join the worker domains (idempotent). Jobs submitted after a
      shutdown run inline, sequentially. *)

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val parallel_for : t -> ?chunk:int -> n:int -> (lo:int -> hi:int -> unit) -> unit
  (** [parallel_for pool ~chunk ~n body] runs [body ~lo ~hi] over
      contiguous half-open chunks [\[lo, hi)] covering [0 .. n-1], each
      chunk exactly once. [chunk] defaults to [max 1 (n / 64)] — a fixed
      schedule independent of the pool size. Chunks may run in any order,
      on any domain; [body] must only write to disjoint, per-index (or
      per-chunk) state. *)

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val parallel_map : t -> ?chunk:int -> n:int -> (int -> 'a) -> 'a array
  (** [parallel_map pool ~n f] is [[| f 0; ...; f (n-1) |]] with the
      applications distributed like {!parallel_for}. *)

  (* lint: allow R15 — explicit pools under [default]; the pool-mechanics
     and jobs-independence suites drive pools of fixed sizes *)
  val parallel_map_result :
    t ->
    ?chunk:int ->
    ?on_result:(int -> ('a, exn) result -> unit) ->
    n:int ->
    (int -> 'a) ->
    ('a, exn) result array
  (** Fault-isolated {!parallel_map}: an exception raised by [f i] is
      captured into slot [i] as [Error exn] instead of cancelling the
      job — every index is always attempted, so one pathological item
      cannot discard the work of its siblings (the genome-scale batch
      contract). The chunk schedule, and therefore any per-chunk RNG
      substream derivation, is identical to {!parallel_map}'s.

      [on_result], when given, fires once per index immediately after
      that index's result is committed, on whichever domain executed it
      — concurrently with other indices. It exists for progress
      aggregation ({!Obs.Progress}): it must be domain-safe, must not
      raise, and must not influence results. *)

end

val jobs : unit -> int
(** The effective jobs setting for the global default pool: the last
    {!set_jobs} value if any, else a positive integer [DECONV_JOBS]
    environment variable, else [Domain.recommended_domain_count ()]. *)

val set_jobs : int -> unit
(** Override the default pool size ([--jobs]). Takes effect on the next
    {!default} access (the previous default pool is shut down). Requires
    [n >= 1]. Raises [Invalid_argument] if called while the default pool
    is executing a job: resizing mid-flight would tear down workers that
    still hold unclaimed chunks. *)

val default : unit -> Pool.t
(** The lazily-created global pool, sized by {!jobs}. Re-created on size
    changes; its workers are joined automatically at process exit. *)

val parallel_for : ?chunk:int -> n:int -> (lo:int -> hi:int -> unit) -> unit
(** {!Pool.parallel_for} on {!default}. *)

val parallel_map : ?chunk:int -> n:int -> (int -> 'a) -> 'a array
(** {!Pool.parallel_map} on {!default}. *)

val parallel_map_result :
  ?chunk:int ->
  ?on_result:(int -> ('a, exn) result -> unit) ->
  n:int ->
  (int -> 'a) ->
  ('a, exn) result array
(** {!Pool.parallel_map_result} on {!default}. *)
