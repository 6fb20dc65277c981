open Numerics

type t = float -> float

let constant v _phi = v

let gaussian_pulse ~center ~width ~height ?(baseline = 0.0) () phi =
  let z = (phi -. center) /. width in
  baseline +. (height *. exp (-0.5 *. z *. z))

let from_samples ~phases ~values =
  let interp = Interp.pchip_build ~x:phases ~y:values in
  fun phi -> Interp.pchip_eval interp phi

