(** Crash-safe file replacement: write to a fresh temp file in the
    destination's directory, flush + [fsync], then [rename] over the final
    path (and best-effort fsync the directory). A reader — or a process
    restarted after SIGKILL — observes either the previous content or the
    complete new content, never a torn prefix.

    This is the designated sink for every durable write in the tree: lint
    rule R9 bans raw [open_out] on final paths everywhere else. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path body] replaces [path] atomically with whatever [body]
    writes to the channel. On exception from [body] the temp file is
    removed and [path] is untouched; the exception is re-raised. *)

