let check phi_sst phi =
  assert (phi_sst > 0.0 && phi_sst < 1.0);
  assert (phi >= 0.0 && phi <= 1.0 +. 1e-9)

(* Shorthands for the daughter-volume split; [Params] is the canonical
   definition site of the 0.4/0.6 fractions (paper eqs. 6–8). *)
let sw = Params.sw_volume_fraction
let st = Params.st_volume_fraction

(* Slope of the stalked-phase linear segment: the volume grows by the
   remaining (1 − st)·v0 over the final (1 − φ_sst) of the cycle. *)
let stalked_slope ~phi_sst = (1.0 -. st) /. (1.0 -. phi_sst)

let linear ~v0 ~phi_sst phi =
  check phi_sst phi;
  if phi < phi_sst then v0 *. (sw +. ((st -. sw) *. phi /. phi_sst))
  else v0 *. (st +. ((1.0 -. st) *. (phi -. phi_sst) /. (1.0 -. phi_sst)))

(* Paper eq. 11: a cubic on [0, φ_sst] pinned by v(0) = sw·v0,
   v(φ_sst) = st·v0 and rate continuity v'(0) = v'(φ_sst) = β (the
   stalked-segment slope), followed by the linear stalked segment. *)
let smooth_cubic_coeffs ~phi_sst =
  let s = phi_sst in
  let beta = stalked_slope ~phi_sst in
  (* Solve sw + β·s + c2·s² + c3·s³ = st with 2·c2·s + 3·c3·s² = 0. *)
  let delta = (st -. sw) -. (beta *. s) in
  let c2 = 3.0 *. delta /. (s *. s) in
  let c3 = -2.0 *. delta /. (s *. s *. s) in
  (beta, c2, c3)

let smooth ~v0 ~phi_sst phi =
  check phi_sst phi;
  if phi < phi_sst then begin
    let c1, c2, c3 = smooth_cubic_coeffs ~phi_sst in
    v0 *. (sw +. (c1 *. phi) +. (c2 *. phi *. phi) +. (c3 *. phi *. phi *. phi))
  end
  else v0 *. (1.0 +. (stalked_slope ~phi_sst *. (phi -. 1.0)))

let eval (p : Params.t) ~phi_sst phi =
  match p.volume_model with
  | Params.Linear -> linear ~v0:p.v0 ~phi_sst phi
  | Params.Smooth -> smooth ~v0:p.v0 ~phi_sst phi
