(** Typed taxonomy of the failure modes of the ill-posed inversion
    (paper §2.3). Every diagnosable failure in the solver stack is
    expressed as one of these values instead of a raw [failwith]/[assert],
    so callers can branch on the cause. *)

type t =
  | Ill_conditioned of { cond : float }
      (** The penalized normal matrix has an estimated spectral condition
          number too large for a trustworthy direct solve. *)
  | Qp_stalled of { iterations : int }
      (** The QP hit its cycle guard (the pass cap) with a positivity row
          still violated beyond its feasibility tolerance; [iterations] is
          the passes it spent. *)
  | Non_finite of { stage : string }
      (** A NaN or infinity was detected at the named stage (e.g.
          "measurements", "kernel", "constrained QP solution"). *)
  | Invalid_input of { field : string; why : string }
      (** A structural precondition on the named input field is violated
          (unsorted times, non-positive sigma, dimension mismatch, ...). *)
  | Kernel_degenerate
      (** A kernel time row carries (almost) no probability mass, so the
          forward operator cannot be normalized. *)
  | Budget_exhausted of { resource : string; limit : float; spent : float }
      (** A per-solve budget ({!Budget}) ran out before the solve
          converged: [resource] names the dimension ("seconds" or
          "iterations"), [limit] the cap, [spent] the amount consumed when
          the guard fired. *)
  | Unexpected of { description : string }
      (** A failure outside the taxonomy (an arbitrary exception captured
          at a fault-isolation boundary), kept as a printable description
          so batch reports can still classify and journal it. *)

exception Error of t
(** Escape hatch for contexts that cannot return a [result]; always
    carries a value of the taxonomy above. *)

val raise_error : t -> 'a

val to_string : t -> string

val equal : t -> t -> bool
(** Structural equality (payloads included). *)

val class_name : t -> string
(** Stable lowercase slug of the constructor (e.g. ["qp_stalled"]), used
    as the metrics label and journal field for per-class failure counts.
    [same_class a b] iff [class_name a = class_name b]. *)

val of_exn : exn -> t
(** Project an arbitrary exception into the taxonomy: [Error e] unwraps to
    [e]; anything else becomes [Unexpected] with its printed form. Used at
    fault-isolation boundaries ({!Parallel.parallel_map_result} slots). *)
