(** Batch deconvolution of many genes sharing one population kernel — the
    regime of a real microarray study (thousands of genes, one asynchrony
    model). Kernel-, basis- and constraint-dependent quantities are
    assembled (and factored) once and reused across genes. *)

open Numerics

type t
(** Prepared context: one template {!Problem.t} holding the forward
    matrix, penalty, constraint blocks and {!Problem.factorize}, built once
    by {!prepare}. Every gene re-points it at its own data through
    {!Problem.with_data}, so no per-gene path assembles a matrix,
    integrates a constraint row or factors the shared system. *)

val prepare :
  ?use_positivity:bool ->
  ?use_conservation:bool ->
  ?use_rate_continuity:bool ->
  kernel:Cellpop.Kernel.t ->
  basis:Spline.Basis.t ->
  params:Cellpop.Params.t ->
  unit ->
  t
(** Builds the template problem with {!Problem.create} (all constraints
    on by default) and factors it: the batch's one constraint build and
    one factorization. A template that cannot be factored is kept without
    one, and its genes fail λ selection with the typed [Non_finite]. *)

val solve_all :
  t ->
  ?sigmas:Mat.t ->
  ?lambda:[ `Fixed of float | `Gcv ] ->
  measurements:Mat.t ->
  unit ->
  Solver.estimate array
(** Rows of [measurements] (and [sigmas]) are genes. Implemented over
    {!solve_all_result}: on any per-gene failure, raises
    {!Robust.Error.Error} for the failing gene of {e lowest index}
    (deterministic, unlike the old first-exception-wins cancellation). *)

(** {1 Fault-isolated batch} *)

(* lint: allow R15 — the per-gene solve under [solve_all_result]; the
   fault-isolation tests solve single genes through it *)
val solve_gene_result :
  t ->
  ?sigmas:Vec.t ->
  ?lambda:[ `Fixed of float | `Gcv ] ->
  ?budget:Robust.Budget.t ->
  measurements:Vec.t ->
  unit ->
  (Solver.estimate, Robust.Error.t) result
(** Deconvolve one gene: validates the problem, selects λ with
    {!Lambda.select_result} ([`Gcv] is the default policy; a [`Fixed]
    λ that is not finite and ≥ 0 is [Invalid_input {field = "lambda"}]),
    solves, and checks finiteness — any failure (including an arbitrary
    exception, via {!Robust.Error.of_exn}) becomes a typed [Error]
    instead of a raise. Without [sigmas] the λ sweep reads the template's
    factorization; a gene with its own σ factors its own system. Under a
    trace sink the quality record is computed in a [quality.emit] span. *)

(** Aggregate report of a fault-isolated batch. *)
module Outcome : sig
  type t = {
    outcomes : (Solver.estimate, Robust.Error.t) result array;
        (** per gene, in row order *)
    replayed : int;  (** genes restored from the checkpoint journal *)
    quality : (string * Quality.quantiles) list;
        (** per-gene quality quantiles (rss, lambda, qp_iterations,
            active_positivity, runs_z) over the successful solves; render
            with {!Quality.output_quantiles}. Empty when no gene
            succeeded. *)
  }

  val total : t -> int
  val ok_count : t -> int
  val failed_count : t -> int
  val fully_ok : t -> bool

  val failures : t -> (int * Robust.Error.t) list
  (** Failing genes in ascending index order. *)

  val class_counts : t -> (string * int) list
  (** Failure counts per {!Robust.Error.class_name}, sorted by class. *)

end

(* lint: allow R15 — one gene's checkpoint key; test/test_resilience.ml
   pins it to golden keys so journals written by older builds stay
   resumable *)
val gene_key :
  t ->
  ?sigmas:Vec.t ->
  lambda:[ `Fixed of float | `Gcv ] ->
  measurements:Vec.t ->
  unit ->
  string
(** The checkpoint content key for one gene: an FNV-1a 64 hash over the
    kernel (phases, times, Q), basis, population parameters, constraint
    flags, λ policy and the gene's data — everything that determines the
    solve's result. {!prepare} hashes the shared parts once. *)

val solve_all_result :
  t ->
  ?sigmas:Mat.t ->
  ?lambda:[ `Fixed of float | `Gcv ] ->
  ?max_seconds:float ->
  ?max_iterations:int ->
  ?journal:Checkpoint.t ->
  ?block:int ->
  ?on_block:(done_:int -> total:int -> unit) ->
  ?progress:Obs.Progress.t ->
  measurements:Mat.t ->
  unit ->
  Outcome.t
(** Survivable batch: every gene is attempted (fault isolation via
    {!Parallel.parallel_map_result}), failures are contained as typed
    outcomes, and per-class counts are published to {!Obs.Metrics}
    ([batch.genes_ok], [batch.genes_failed], [batch.genes_replayed],
    [batch.failures.<class>]).

    [sigmas] of other dimensions than [measurements] raise
    [Invalid_input {field = "sigmas"}] before any gene runs.

    [max_seconds]/[max_iterations] cap each gene's solve with a fresh
    {!Robust.Budget} (omitted = unlimited; no budget object is created
    then, so results are bit-identical to the uncapped path).

    [journal] enables checkpointing: genes whose [(index, key)] already
    appear in the journal are replayed verbatim (bit-for-bit, thanks to
    hex-float serialization) and the rest are solved in blocks of
    [block] genes (default 64), with one atomic, fsync'd journal flush
    per block. [on_block ~done_ ~total] fires after each flush — the
    chaos harness's mid-batch crash hook; an exception it raises
    propagates (it is deliberately {e not} isolated).

    [progress] receives one {!Obs.Progress.record} per solved gene (with
    its failure class) as completions land on worker domains, plus one
    {!Obs.Progress.record_replayed} for journal replays up front — the
    live [--progress] feed. Aggregation only; results are unaffected. *)

val phases : t -> Vec.t

val peak_phase : t -> Solver.estimate -> float
(** Phase of the maximum of the estimated profile. *)

val classify_by_peak : t -> Solver.estimate array -> boundaries:Vec.t -> int array
(** Assign each gene the index of the phase window its peak falls into;
    [boundaries] are the (sorted) right edges of all but the last window. *)
