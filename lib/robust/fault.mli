(** Fault injectors for the chaos harness ([Deconv.Chaos], [deconv-cli
    chaos]) and the pipeline's fault option: each value describes one way
    real experimental data goes wrong. Injectors are pure — they return a
    corrupted copy and never mutate their input — so a clean fixture can
    be re-corrupted many ways. *)

open Numerics

type 'a t = {
  name : string;
  inject : Rng.t -> 'a -> 'a;
}

val apply : 'a t -> Rng.t -> 'a -> 'a

(** {1 Vector faults} (measurements, sigmas, times) *)

val nan_at : ?index:int -> unit -> Vec.t t
(** Replace one entry (random when [index] is omitted) with NaN. *)

(** {1 Matrix faults} (gene batches: rows are genes)

    These are the genome-scale chaos injectors: they corrupt a chosen (or
    random) subset of gene rows so the harness can assert that exactly
    those genes fail while every clean gene's estimate is untouched. *)

val choose_rows : Rng.t -> k:int -> rows:int -> int array
(** [k] distinct row indices drawn without replacement from
    [0 .. rows-1], returned ascending. Raises the typed
    [Invalid_input {field = "k"}] unless [0 <= k <= rows]. *)

val corrupt_rows : rows:int array -> Vec.t t -> Mat.t t
(** Apply a vector fault independently to each of the given rows of a
    copy of the matrix. *)

val poison_sigma_rows : rows:int array -> Mat.t t
(** Force one entry of each given σ row to 0 — invalid input (σ must be
    strictly positive) that a batch must contain, not crash on. *)

(** {1 Mid-batch faults} *)

exception Injected_crash of { done_ : int; total : int }
(** Simulated process death raised from inside a batch progress hook. *)

val crash_after : genes:int -> done_:int -> total:int -> unit
(** An [on_block] hook for [Batch.solve_all_result]: raises
    {!Injected_crash} at the first block boundary where [done_ >= genes].
    Because the journal is flushed before the hook runs, the batch dies
    exactly as SIGKILL would — journal intact, run resumable. *)
