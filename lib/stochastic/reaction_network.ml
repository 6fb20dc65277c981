type reaction = {
  reactants : (int * int) list;
  products : (int * int) list;
  rate : float;
}

type t = {
  species : string array;
  reactions : reaction array;
}

let create ~species ~reactions =
  let species = Array.of_list species in
  let n = Array.length species in
  assert (n > 0);
  List.iter
    (fun r ->
      assert (r.rate >= 0.0);
      List.iter
        (fun (idx, stoich) ->
          assert (idx >= 0 && idx < n);
          assert (stoich > 0))
        (r.reactants @ r.products))
    reactions;
  { species; reactions = Array.of_list reactions }

let num_species t = Array.length t.species

(* Falling-factorial combinatorial count: x choose-ordered stoich. *)
let falling x stoich =
  let rec go acc x k = if k = 0 then acc else go (acc *. float_of_int x) (x - 1) (k - 1) in
  if x < stoich then 0.0 else go 1.0 x stoich

let rec factorial = function 0 | 1 -> 1 | n -> n * factorial (n - 1)

(* Propensity uses the combinatorial count of distinct reactant tuples:
   C(x, s) per species with stoichiometry s. *)
let propensity r state =
  List.fold_left
    (fun acc (idx, stoich) ->
      acc *. falling state.(idx) stoich /. float_of_int (factorial stoich))
    r.rate r.reactants

let total_propensity t state =
  Array.fold_left (fun acc r -> acc +. propensity r state) 0.0 t.reactions

let apply r state =
  List.iter (fun (idx, stoich) -> state.(idx) <- state.(idx) - stoich) r.reactants;
  List.iter (fun (idx, stoich) -> state.(idx) <- state.(idx) + stoich) r.products;
  Array.iter (fun x -> assert (x >= 0)) state

