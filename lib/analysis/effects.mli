(** Interprocedural capability inference over a {!Callgraph.t}.

    Each definition gets a capability set inferred from its Parsetree
    body and propagated to a transitive fixpoint over the call graph:

    - [raises]: exception constructors that can escape the definition
      (explicit [raise]/[failwith]/[invalid_arg] sites and declared
      constructors; [try]/[with] handlers subtract what they catch, a
      re-raising catch-all subtracts nothing). [assert] is deliberately
      not tracked: an [Assert_failure] is a programming-error invariant,
      not a data-path failure. A [raise] of a value whose constructor is
      not syntactically visible is tracked as {!dynamic_raise}.
    - [mutates]: writes module-level mutable state ([:=]/[incr]/[decr],
      [<-], [Array.set]/[Hashtbl.replace]/... whose target resolves to a
      module-level definition — a locally created ref is not global).
    - [rng]: reads the ambient [Random] generator (the explicit
      [Numerics.Rng] substreams are the sanctioned source and do not
      count).
    - [clock]: reads a raw clock ([Sys.time], [Unix.gettimeofday], ...).
    - [io]: touches the process's channels or the filesystem.

    References are conservative: mentioning a function (passing it to a
    higher-order combinator included) is treated as calling it, which is
    exactly what routes a closure's effects through [Parallel.*] even
    though the pool's own machinery re-raises dynamically.

    Every function-typed argument handed to a [Parallel] fan-out entry
    point ([parallel_for]/[parallel_map]/[parallel_map_result], module
    level or on a [Pool.t]) additionally becomes a {!task}: a synthetic
    node holding the capabilities of the code the domain pool will run,
    which is what rule R11 audits. *)

type origin = { file : string; line : int; col : int }
(** Where a capability was introduced (the raise site, the mutation
    site, ...): findings anchor here so suppressions sit next to the
    offending code. *)

module Names : Map.S with type key = string

type caps = {
  raises : origin Names.t;  (** canonical exception name -> first origin *)
  mutates : origin option;
  rng : origin option;
  clock : origin option;
  io : origin option;
}

type task = {
  owner : string;  (** id of the definition submitting the job *)
  site : origin;  (** the fan-out call site *)
  caps : caps;  (** fixpoint capabilities of the task closure *)
}

type result = {
  caps_of : string -> caps option;  (** fixpoint capabilities of a def id *)
  tasks : task list;
  iterations : int;  (** fixpoint sweeps until stable (telemetry) *)
}

val robust_error : string
(** ["Robust.Error.Error"] — the one exception allowed to cross the
    typed-error boundary. *)

val dynamic_raise : string
(** The pseudo-name under which [raise e] of a computed exception value
    is tracked. *)

val analyze : Callgraph.t -> result
