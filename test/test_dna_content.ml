open Numerics
open Testutil

let params = Cellpop.Params.paper_2011

let cell phase phi_sst = { Cellpop.Cell.phase; phi_sst; cycle_minutes = 150.0 }

(* The phase at which replication completes (2C from there on), as
   Dna_content pins it. *)
let replication_end_phase = 0.92

let test_of_cell_stages () =
  check_close "1C before transition" 1.0 (Cellpop.Dna_content.of_cell (cell 0.1 0.15));
  check_close "2C after replication" 2.0 (Cellpop.Dna_content.of_cell (cell 0.95 0.15));
  let mid = Cellpop.Dna_content.of_cell (cell 0.5 0.15) in
  check_true "S-phase between 1 and 2" (mid > 1.0 && mid < 2.0);
  (* Linear ramp: halfway through replication = 1.5C. *)
  let halfway = 0.15 +. ((replication_end_phase -. 0.15) /. 2.0) in
  check_close ~tol:1e-12 "ramp midpoint" 1.5 (Cellpop.Dna_content.of_cell (cell halfway 0.15))

let test_of_cell_uses_own_transition () =
  (* Same phase, later transition: still 1C. *)
  check_close "per-cell replication start" 1.0 (Cellpop.Dna_content.of_cell (cell 0.2 0.25));
  check_true "already replicating" (Cellpop.Dna_content.of_cell (cell 0.2 0.15) > 1.0)

let test_fractions_sum () =
  let snapshots =
    Cellpop.Population.simulate params ~rng:(Rng.create 2500) ~n0:2000 ~times:[| 0.0; 100.0 |]
  in
  Array.iter
    (fun s ->
      let a, b, c = Cellpop.Dna_content.fractions s in
      check_close ~tol:1e-9 "fractions sum to 1" 1.0 (a +. b +. c))
    snapshots

let test_synchronized_starts_1c () =
  let snapshots =
    Cellpop.Population.simulate params ~rng:(Rng.create 2501) ~n0:3000 ~times:[| 0.0 |]
  in
  let one_c, _, _ = Cellpop.Dna_content.fractions snapshots.(0) in
  check_close "all 1C at t=0" 1.0 one_c

let test_asynchronous_fractions_match_theory () =
  (* For a uniform-phase population, P(1C) = E[phi_sst] and
     P(2C) = 1 - replication_end_phase. *)
  let async = { params with Cellpop.Params.initial_condition = Cellpop.Params.Uniform_phase } in
  let snapshots =
    Cellpop.Population.simulate async ~rng:(Rng.create 2502) ~n0:30_000 ~times:[| 0.0 |]
  in
  let one_c, _, two_c = Cellpop.Dna_content.fractions snapshots.(0) in
  check_close ~tol:0.01 "1C fraction = mean transition phase" 0.15 one_c;
  check_close ~tol:0.01 "2C fraction = post-replication span"
    (1.0 -. replication_end_phase)
    two_c

let test_histogram_mass_and_range () =
  let snapshots =
    Cellpop.Population.simulate params ~rng:(Rng.create 2503) ~n0:2000 ~times:[| 90.0 |]
  in
  let h = Cellpop.Dna_content.histogram (Rng.create 1) snapshots.(0) in
  check_close ~tol:30.0 "most cells captured" 2000.0 (Vec.sum h.Stats.counts);
  Alcotest.(check int) "default bins" 61 (Array.length h.Stats.edges)

let test_histogram_noiseless_concentrated () =
  (* Without measurement smear, a t=0 culture is a pure 1C spike. *)
  let snapshots =
    Cellpop.Population.simulate params ~rng:(Rng.create 2504) ~n0:1000 ~times:[| 0.0 |]
  in
  let h = Cellpop.Dna_content.histogram ~measurement_cv:0.0 (Rng.create 1) snapshots.(0) in
  (* All mass in the bin containing 1.0. *)
  let total = Vec.sum h.Stats.counts in
  let spike =
    Array.mapi
      (fun i c -> if h.Stats.edges.(i) <= 1.0 && 1.0 < h.Stats.edges.(i + 1) then c else 0.0)
      h.Stats.counts
  in
  check_close "pure 1C spike" total (Vec.sum spike)

let test_fractions_over_time_shape () =
  let times = [| 0.0; 60.0; 120.0 |] in
  let snapshots = Cellpop.Population.simulate params ~rng:(Rng.create 2505) ~n0:2000 ~times in
  let m = Cellpop.Dna_content.fractions_over_time snapshots in
  Alcotest.(check (pair int int)) "dims" (3, 3) (Mat.dims m);
  check_close ~tol:1e-9 "row sums" 1.0 (Vec.sum (Mat.row m 1))

let tests =
  [
    ( "dna-content",
      [
        case "per-cell stages" test_of_cell_stages;
        case "per-cell transition phase" test_of_cell_uses_own_transition;
        case "fractions sum to one" test_fractions_sum;
        case "synchronized culture starts 1C" test_synchronized_starts_1c;
        case "asynchronous fractions match theory" test_asynchronous_fractions_match_theory;
        case "histogram mass" test_histogram_mass_and_range;
        case "noiseless histogram spike" test_histogram_noiseless_concentrated;
        case "fractions over time" test_fractions_over_time_shape;
      ] );
  ]
