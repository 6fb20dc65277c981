open Numerics

type t = {
  gain : float;
  background : float;
  noise_cv : float;
  saturation : float;
}

let draw ?(gain_cv = 0.3) ?(background_mean = 0.05) rng =
  let gain = Rng.lognormal_factor rng ~cv:gain_cv in
  let background =
    if background_mean > 0.0 then Rng.exponential rng ~rate:(1.0 /. background_mean) else 0.0
  in
  { gain; background; noise_cv = 0.05; saturation = 65535.0 }

let measure t rng ~concentration =
  assert (concentration >= 0.0);
  let clean = (t.gain *. concentration) +. t.background in
  let noisy = clean *. Rng.lognormal_factor rng ~cv:t.noise_cv in
  Float.min t.saturation (Float.max 0.0 noisy)
