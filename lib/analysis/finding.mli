(** A single linter diagnostic: where, which rule, what to do about it. *)

type t = {
  file : string;  (** path as given to the linter *)
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  rule : string;  (** rule id, e.g. ["R1"] *)
  message : string;  (** what is wrong at this site *)
  hint : string;  (** suggested fix *)
}

val make :
  file:string -> loc:Location.t -> rule:string -> message:string -> hint:string -> t
(** Build a finding anchored at the start of [loc]. *)

val compare : t -> t -> int
(** Order by file, line, column, then rule id (deterministic output). *)

val to_text : t -> string
(** [file:line:col: [rule] message. hint: ...] — one line, no trailing
    newline. *)

val list_to_json : t list -> string
(** A JSON array of {!to_json} objects. *)

val list_to_sarif :
  tool:string -> rules:(string * string * string) list -> t list -> string
(** A minimal SARIF 2.1.0 log (one run). [rules] is the registry as
    [(id, title, description)]; only rules referenced by a finding are
    emitted in the driver metadata. *)
