(** Record of what the robust solver did on its way to an answer: the
    input repairs it applied, the condition estimate behind its
    preconditioning decision, and its one constrained attempt with the
    regularization used and the time it took. *)

type stage =
  | Validation  (** input validation; a failure there returns the error, never a report *)
  | Constrained_qp

type attempt = {
  stage : stage;
  lambda : float;  (** smoothing strength used by this attempt *)
  ridge : float;  (** diagonal ridge added to the normal matrix *)
  seconds : float;
      (** wall-clock time spent on the attempt, measured via [Obs.Clock]
          (never [Sys.time], which is processor time and undercounts any
          wait) *)
  iterations : int;
      (** QP passes the attempt consumed: the first scan, then one per add
          or drop of an active row *)
  outcome : (unit, Error.t) result;
}

type repair = {
  action : string;  (** e.g. "masked non-finite measurements" *)
  count : int;  (** number of entries touched *)
}

type t = {
  attempts : attempt list;  (** chronological; one constrained attempt *)
  condition : float;
      (** 1-norm condition number κ₁ of the penalized normal matrix at the
          entry [lambda] (Deconv.Quality.system); [infinity] when that
          matrix is not numerically SPD *)
  repairs : repair list;  (** input repairs applied before solving *)
  degradation : int;
      (** 0 = pristine inputs and no preconditioning ridge; 1 = the
          constrained QP after input repairs or with the preconditioning
          ridge *)
}

val num_attempts : t -> int

val to_string : t -> string
