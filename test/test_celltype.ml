open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let boundaries = Cellpop.Celltype.mid_boundaries

let cell phase phi_sst = { Cellpop.Cell.phase; phi_sst; cycle_minutes = 150.0 }

(* [| sw; ste; stepd; stlpd |] of one snapshot. *)
let fractions boundaries s = Mat.row (Cellpop.Celltype.fractions_over_time boundaries [| s |]) 0

let category_to_string = function
  | Cellpop.Celltype.SW -> "SW"
  | STE -> "STE"
  | STEPD -> "STEPD"
  | STLPD -> "STLPD"

let test_classification () =
  let open Cellpop.Celltype in
  Alcotest.(check string) "swarmer" "SW"
    (category_to_string (classify boundaries (cell 0.1 0.15)));
  Alcotest.(check string) "early stalked" "STE"
    (category_to_string (classify boundaries (cell 0.3 0.15)));
  Alcotest.(check string) "early predivisional" "STEPD"
    (category_to_string (classify boundaries (cell 0.7 0.15)));
  Alcotest.(check string) "late predivisional" "STLPD"
    (category_to_string (classify boundaries (cell 0.95 0.15)))

let test_per_cell_transition () =
  (* The SW boundary is per-cell: same phase, different phi_sst. *)
  let open Cellpop.Celltype in
  Alcotest.(check string) "below own transition" "SW"
    (category_to_string (classify boundaries (cell 0.18 0.25)));
  Alcotest.(check string) "above own transition" "STE"
    (category_to_string (classify boundaries (cell 0.18 0.15)))

let test_boundary_presets () =
  check_close "low ste-stepd" 0.6 Cellpop.Celltype.low_boundaries.Cellpop.Celltype.ste_to_stepd;
  check_close "high stepd-stlpd" 0.9 Cellpop.Celltype.high_boundaries.Cellpop.Celltype.stepd_to_stlpd;
  check_close "mid is midpoint" 0.65 Cellpop.Celltype.mid_boundaries.Cellpop.Celltype.ste_to_stepd

let test_fractions_sum_to_one () =
  let rng = Rng.create 500 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:3000 ~times:[| 0.0; 75.0; 150.0 |] in
  Array.iter
    (fun s ->
      let f = fractions boundaries s in
      Alcotest.(check int) "four categories" 4 (Array.length f);
      check_close ~tol:1e-9 "fractions sum to 1" 1.0 (Vec.sum f))
    snapshots

let test_initial_population_all_swarmer () =
  let rng = Rng.create 501 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:2000 ~times:[| 0.0 |] in
  let f = fractions boundaries snapshots.(0) in
  check_close "all swarmer at t=0" 1.0 f.(0)

let test_fractions_dynamics () =
  (* The paper's Fig. 4 qualitative shapes: SW falls as cells transition,
     then rises again after divisions create new swarmers; STE rises then
     falls; predivisional types appear late. *)
  let rng = Rng.create 502 in
  let times = [| 0.0; 40.0; 75.0; 110.0; 150.0 |] in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:5000 ~times in
  let f = Cellpop.Celltype.fractions_over_time boundaries snapshots in
  (* SW at 40 min is far below 1. *)
  check_true "sw drops" (Mat.get f 1 0 < 0.3);
  (* STE peaks in the middle of the cycle. *)
  check_true "ste present at 40" (Mat.get f 1 1 > 0.5);
  check_true "ste declines by 150" (Mat.get f 4 1 < Mat.get f 2 1);
  (* Late predivisional cells only appear near the end of the cycle. *)
  check_close "no stlpd at 40" 0.0 (Mat.get f 1 3);
  check_true "stlpd appears late" (Mat.get f 4 3 > 0.05);
  (* New swarmer daughters after division push SW back up. *)
  check_true "sw recovers at 150" (Mat.get f 4 0 > Mat.get f 2 0)

let test_boundary_ranges_bracket () =
  (* Low boundaries classify more cells as predivisional than high ones. *)
  let rng = Rng.create 503 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:4000 ~times:[| 120.0 |] in
  let low = fractions Cellpop.Celltype.low_boundaries snapshots.(0) in
  let high = fractions Cellpop.Celltype.high_boundaries snapshots.(0) in
  check_true "low boundary gives more STEPD+STLPD" (low.(2) +. low.(3) >= high.(2) +. high.(3))

let tests =
  [
    ( "celltype",
      [
        case "classification" test_classification;
        case "per-cell transition boundary" test_per_cell_transition;
        case "boundary presets" test_boundary_presets;
        case "fractions sum to one" test_fractions_sum_to_one;
        case "initial population all swarmer" test_initial_population_all_swarmer;
        case "fraction dynamics match biology" test_fractions_dynamics;
        case "boundary ranges bracket" test_boundary_ranges_bracket;
      ] );
  ]
