(** Crash-safe JSONL journal of per-gene batch outcomes — the
    checkpoint/resume layer of the survivable genome-scale run.

    {b File format.} Line 1 is the header
    [{"journal":"deconv-batch","version":1}]; every further line is one
    {!entry}: [{"gene":g,"key":"…","ok":{…}}] for a completed estimate or
    [{"gene":g,"key":"…","error":{…}}] for a journaled {!Robust.Error.t}.
    Every float is serialized as a hexadecimal literal ([%h]) inside a
    JSON string and parsed back with [float_of_string], so replayed
    estimates are bit-for-bit identical to the originals.

    {b Durability.} The journal is flushed through
    {!Dataio.Atomic_file.write} (temp file + [fsync] + [rename]) once per
    appended batch, so after SIGKILL the file on disk is always a valid
    journal — the last complete batch, never a torn line.

    {b Keys.} Each entry carries a content hash ({!feed_key}, FNV-1a
    64) of everything that determines the gene's result: kernel, basis,
    constraint set, λ policy and the gene's data row. [--resume] only
    replays an entry when both the gene index and the key match, so a
    journal from a different configuration silently re-solves instead of
    corrupting the run. *)

type entry = {
  gene : int;  (** row index in the batch's measurement matrix *)
  key : string;  (** content hash (16 hex digits) of the solve's inputs *)
  outcome : (Solver.estimate, Robust.Error.t) result;
}

type key_state
(** FNV-1a 64-bit state part way through a key's length-prefixed parts.
    Feeding [a] then [b] equals feeding [a @ b], so parts that many keys
    share can be fed once. *)

val key_seed : key_state
val feed_key : key_state -> string list -> key_state

val finish_key : key_state -> string
(** The key: the state as 16 hex digits. *)

val vec_part : Numerics.Vec.t -> string
(** Canonical (hex-float) key part for a vector. *)

val mat_part : Numerics.Mat.t -> string
(** Canonical key part for a matrix, row-major. *)

type t
(** An open journal: in-memory entries mirrored to disk on {!append}. *)

val create : path:string -> t
(** Start a fresh journal at [path], immediately replacing whatever was
    there (so a stale journal can never leak into a later [--resume]). *)

val resume : path:string -> (t, string) result
(** Reopen an existing journal, keeping its entries; a missing file yields
    an empty journal. [Error] describes the first malformed line. *)

val append : t -> entry list -> unit
(** Record a batch of outcomes and atomically rewrite the journal
    ([fsync]'d). No-op on []. *)

val entries : t -> entry list
(** All entries, in append order. *)

val find : entry list -> gene:int -> key:string -> entry option
(** The replayable entry for a gene, if its key matches. *)

val load : path:string -> (entry list, string) result
(** Read a journal without opening it for writing ([Ok []] if absent). *)

val entry_json : entry -> string
(** One JSONL line, no trailing newline (exposed for tests). *)

val entry_of_line : string -> (entry, string) result
(** Parse one entry line (exposed for tests). *)
