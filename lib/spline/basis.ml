open Numerics

type t = {
  name : string;
  size : int;
  lo : float;
  hi : float;
  eval : int -> float -> float;
  deriv : int -> float -> float;
  deriv2 : int -> float -> float;
  breaks : Vec.t;
}

let design b xs = Mat.init (Array.length xs) b.size (fun m i -> b.eval i xs.(m))

let combine b alpha x =
  assert (Array.length alpha = b.size);
  let acc = ref 0.0 in
  for i = 0 to b.size - 1 do
    acc := !acc +. (alpha.(i) *. b.eval i x)
  done;
  !acc

let combine_many b alpha xs = Array.map (combine b alpha) xs
