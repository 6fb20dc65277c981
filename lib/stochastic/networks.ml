
let lotka_volterra ~a ~b ~c ~d ~volume =
  assert (volume > 0.0);
  Reaction_network.create ~species:[ "x1"; "x2" ]
    ~reactions:
      [
        (* Prey birth: X1 -> 2 X1. *)
        { Reaction_network.reactants = [ (0, 1) ]; products = [ (0, 2) ]; rate = a };
        (* Predation removes prey: X1 + X2 -> X2. *)
        { Reaction_network.reactants = [ (0, 1); (1, 1) ]; products = [ (1, 1) ];
          rate = b /. volume };
        (* Predator birth fueled by prey: X1 + X2 -> X1 + 2 X2. *)
        { Reaction_network.reactants = [ (0, 1); (1, 1) ]; products = [ (0, 1); (1, 2) ];
          rate = c /. volume };
        (* Predator death: X2 -> 0. *)
        { Reaction_network.reactants = [ (1, 1) ]; products = []; rate = d };
      ]

let concentrations_to_counts ~volume concentrations =
  Array.map (fun c -> Stdlib.max 0 (int_of_float (Float.round (c *. volume)))) concentrations

