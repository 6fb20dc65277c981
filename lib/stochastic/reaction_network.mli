(** Mass-action chemical reaction networks — the substrate for exact
    stochastic simulation of single-cell kinetics (the intrinsic noise that
    the paper's asynchronous variability is defined *against*, §1). *)

type reaction = {
  reactants : (int * int) list;  (** (species index, stoichiometry) *)
  products : (int * int) list;
  rate : float;  (** stochastic rate constant *)
}

type t = {
  species : string array;
  reactions : reaction array;
}

val create : species:string list -> reactions:reaction list -> t
(** Validates species indices and non-negative rates. *)

val num_species : t -> int

val propensity : reaction -> int array -> float
(** Mass-action propensity: rate × Π binomial-style falling factorials
    (x·(x−1)/2 for a homodimer reactant, etc.). *)

val total_propensity : t -> int array -> float

val apply : reaction -> int array -> unit
(** Fire the reaction once, updating copy numbers in place; asserts that
    no count goes negative. *)

