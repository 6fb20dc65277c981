(** Path scoping shared by the per-file rules ({!Lint}) and the
    interprocedural ones ({!Policy}). Paths are split on ['/']; a file is
    library code when a [lib] segment appears among its parent
    directories. *)

val segments : string -> string list
(** The non-empty, non-["."] components of a ['/']-separated path. *)

val in_lib : string -> bool
(** Is the path under some [lib/] directory? *)

val under : string list -> string -> bool
(** [under entries path]: is [path] under [lib/<e>] for one of [entries],
    each a [lib/]-relative directory (["obs"]) or file
    (["dataio/atomic_file.ml"])? *)

val in_user_tree : string -> bool
(** Is the path a program that uses the library — under a [bin/],
    [bench/], [examples/] or [perfbench/] directory and not under
    [lib/]? *)
