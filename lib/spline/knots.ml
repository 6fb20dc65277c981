open Numerics

let uniform ~lo ~hi n =
  assert (n >= 2);
  Vec.linspace lo hi n

