open Numerics

(* lint: allow R4 -- Kelly et al. (1998) ftsZ transcription-onset delay, an
   independent biological observation that only coincidentally equals the
   swarmer volume fraction *)
let transcription_onset = 0.15

(* Control points chosen so that: expression is exactly 0 through the
   swarmer stage (φ ≤ 0.15, the transcription delay of Kelly et al. 1998);
   the peak (≈11, matching Fig. 5's deconvolved scale) sits at φ = 0.4; the
   decline is steep and never reverses; and the division-conservation
   relation f(1) = 0.4 f(0) + 0.6 f(φ_sst) holds exactly:
   f(1) = 0.4·0 + 0.6·0 = 0. *)
let control_phases = [| 0.0; 0.05; 0.10; 0.15; 0.20; 0.28; 0.40; 0.50; 0.60; 0.75; 0.90; 1.0 |]
let control_values = [| 0.0; 0.0; 0.0; 0.0; 2.0; 7.5; 11.0; 7.0; 3.0; 1.2; 0.4; 0.0 |]

let profile = Gene_profile.from_samples ~phases:control_phases ~values:control_values

let delay_visible ~phases ~values ~threshold =
  assert (Array.length phases = Array.length values);
  let vmax = Vec.max values in
  if vmax <= 0.0 then false
  else begin
    let ok = ref true in
    Array.iteri
      (fun i phi ->
        if phi < transcription_onset && values.(i) > threshold *. vmax then ok := false)
      phases;
    !ok
  end

let post_peak_monotone_drop ~phases ~values ~tolerance =
  assert (Array.length phases = Array.length values);
  let vmax = Vec.max values in
  if vmax <= 0.0 then false
  else begin
    let peak_index = Vec.argmax values in
    let running_min = ref values.(peak_index) in
    let ok = ref true in
    for i = peak_index + 1 to Array.length values - 1 do
      if values.(i) > !running_min +. (tolerance *. vmax) then ok := false;
      running_min := Float.min !running_min values.(i)
    done;
    !ok
  end
