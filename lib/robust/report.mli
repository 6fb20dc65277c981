(** Record of everything the robust solver tried on its way to an answer:
    which stages ran, with what regularization, how long each took, what
    failed and why, and which stage finally produced the estimate. *)

type stage =
  | Validation
  | Repair
  | Constrained_qp
  | Unconstrained
  | Richardson_lucy

val stage_name : stage -> string

type attempt = {
  stage : stage;
  lambda : float;  (** smoothing strength used by this attempt *)
  ridge : float;  (** diagonal ridge added to the normal matrix *)
  seconds : float;
      (** wall-clock time spent on the attempt, measured via [Obs.Clock]
          (never [Sys.time], which is processor time and undercounts any
          wait) *)
  iterations : int;
      (** solver iterations the attempt consumed (QP passes — the first
          scan, then one per add or drop of an active row — or
          Richardson–Lucy updates); 0 when the stage has no iterative
          solver or failed before reaching it *)
  outcome : (unit, Error.t) result;
}

type repair = {
  action : string;  (** e.g. "masked non-finite measurements" *)
  count : int;  (** number of entries touched *)
}

type t = {
  attempts : attempt list;  (** chronological *)
  condition : float;
      (** 1-norm condition number κ₁ of the penalized normal matrix at the
          entry [lambda] (Deconv.Quality.system); [infinity] when that
          matrix is not numerically SPD *)
  repairs : repair list;  (** input repairs applied before solving *)
  degradation : int;
      (** 0 = first constrained QP attempt, pristine inputs; 1 = constrained
          QP after repairs / boosted regularization; 2 = unconstrained
          smoothing spline; 3 = Richardson–Lucy *)
  solved_by : stage;  (** the stage that produced the returned estimate *)
}

val num_attempts : t -> int

val to_string : t -> string
