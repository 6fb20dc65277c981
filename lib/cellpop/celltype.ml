open Numerics

type category = SW | STE | STEPD | STLPD

type boundaries = { ste_to_stepd : float; stepd_to_stlpd : float }

(* lint: allow R4 -- DNA-content gate boundary between early and
   early-predivisional stalked cells, not the ST volume fraction *)
let low_boundaries = { ste_to_stepd = 0.6; stepd_to_stlpd = 0.85 }
let mid_boundaries = { ste_to_stepd = 0.65; stepd_to_stlpd = 0.875 }
let high_boundaries = { ste_to_stepd = 0.7; stepd_to_stlpd = 0.9 }

let classify b (c : Cell.t) =
  if c.Cell.phase < c.Cell.phi_sst then SW
  else if c.Cell.phase < b.ste_to_stepd then STE
  else if c.Cell.phase < b.stepd_to_stlpd then STEPD
  else STLPD

let index = function SW -> 0 | STE -> 1 | STEPD -> 2 | STLPD -> 3

let fractions b (s : Population.snapshot) =
  let counts = Array.make 4 0.0 in
  Array.iter (fun c -> counts.(index (classify b c)) <- counts.(index (classify b c)) +. 1.0) s.Population.cells;
  let n = float_of_int (Array.length s.Population.cells) in
  if Float.equal n 0.0 then counts else Array.map (fun c -> c /. n) counts

let fractions_over_time b snapshots =
  Mat.of_rows (Array.map (fractions b) snapshots)
