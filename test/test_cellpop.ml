open Numerics
open Testutil

let params = Cellpop.Params.paper_2011

let test_params_presets () =
  check_close "2011 transition" 0.15 params.Cellpop.Params.mu_sst;
  check_close "2011 cv" 0.13 params.Cellpop.Params.cv_sst;
  check_close "cycle time" 150.0 params.Cellpop.Params.mean_cycle_minutes;
  check_close "2009 transition" 0.25 Cellpop.Params.plos_2009.Cellpop.Params.mu_sst;
  check_close ~tol:1e-12 "sst std" (0.13 *. 0.15) (Cellpop.Params.sst_std params);
  check_close ~tol:1e-12 "cycle std" (0.1 *. 150.0) (Cellpop.Params.cycle_std params)

let test_sst_density_normalized () =
  let mass =
    Integrate.simpson (Cellpop.Params.sst_density params) ~a:0.0 ~b:0.5 ~n:4000
  in
  check_close ~tol:1e-6 "density mass" 1.0 mass

let test_draw_statistics () =
  let rng = Rng.create 300 in
  let n = 50_000 in
  let phi_ssts = Array.init n (fun _ -> Cellpop.Cell.draw_phi_sst params rng) in
  check_close ~tol:0.002 "phi_sst mean" 0.15 (Stats.mean phi_ssts);
  check_close ~tol:0.01 "phi_sst cv" 0.13 (Stats.cv phi_ssts);
  let cycles = Array.init n (fun _ -> Cellpop.Cell.draw_cycle_minutes params rng) in
  check_close ~tol:0.5 "cycle mean" 150.0 (Stats.mean cycles);
  check_close ~tol:0.01 "cycle cv" 0.1 (Stats.cv cycles)

let test_founder_synchronized () =
  let rng = Rng.create 301 in
  for _ = 1 to 2_000 do
    let c = Cellpop.Cell.founder params rng in
    check_true "founder is swarmer" (c.Cellpop.Cell.phase <= c.Cellpop.Cell.phi_sst)
  done

let test_founder_uniform () =
  let uniform_params = { params with Cellpop.Params.initial_condition = Cellpop.Params.Uniform_phase } in
  let rng = Rng.create 302 in
  let phases = Array.init 20_000 (fun _ -> (Cellpop.Cell.founder uniform_params rng).Cellpop.Cell.phase) in
  check_close ~tol:0.01 "uniform phase mean" 0.5 (Stats.mean phases)

let test_daughters () =
  let rng = Rng.create 303 in
  let sw = Cellpop.Cell.swarmer_daughter params rng in
  check_close "swarmer at phase 0" 0.0 sw.Cellpop.Cell.phase;
  let st = Cellpop.Cell.stalked_daughter params rng in
  check_close ~tol:1e-12 "stalked re-enters at its phi_sst" st.Cellpop.Cell.phi_sst
    st.Cellpop.Cell.phase;
  check_true "stalked is not swarmer" (st.Cellpop.Cell.phase >= st.Cellpop.Cell.phi_sst)

let test_advance_and_division_time () =
  let cell = { Cellpop.Cell.phase = 0.5; phi_sst = 0.15; cycle_minutes = 100.0 } in
  let moved = Cellpop.Cell.advance cell 25.0 in
  check_close ~tol:1e-12 "phase advance" 0.75 moved.Cellpop.Cell.phase;
  check_close ~tol:1e-12 "time to division" 50.0 (Cellpop.Cell.time_to_division cell)

let test_population_growth () =
  let rng = Rng.create 304 in
  let times = [| 0.0; 75.0; 150.0; 225.0 |] in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:2000 ~times in
  let counts = Array.map Cellpop.Population.count snapshots in
  Alcotest.(check int) "initial count" 2000 counts.(0);
  check_true "no division in first half cycle" (counts.(1) = 2000);
  check_true "population grows" (counts.(2) > 2000 && counts.(3) > counts.(2));
  (* After ~1.5 mean cycles every founder divided at least once: the
     population roughly doubles by t=225 (between 1.7x and 2.6x). *)
  let ratio = float_of_int counts.(3) /. 2000.0 in
  check_true "growth magnitude plausible" (ratio > 1.7 && ratio < 2.6)

let test_population_phases_in_range () =
  let rng = Rng.create 305 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:500 ~times:[| 0.0; 100.0; 200.0 |] in
  Array.iter
    (fun s ->
      Array.iter
        (fun (c : Cellpop.Cell.t) ->
          check_true "phase in [0,1)" (c.Cellpop.Cell.phase >= 0.0 && c.Cellpop.Cell.phase < 1.0))
        s.Cellpop.Population.cells)
    snapshots

let test_population_deterministic () =
  let sim seed =
    let rng = Rng.create seed in
    Cellpop.Population.simulate params ~rng ~n0:200 ~times:[| 0.0; 120.0 |]
  in
  let a = sim 42 and b = sim 42 in
  Alcotest.(check int) "same counts" (Cellpop.Population.count a.(1)) (Cellpop.Population.count b.(1));
  let pa = Cellpop.Population.phases a.(1) and pb = Cellpop.Population.phases b.(1) in
  check_vec ~tol:0.0 "same phases" pa pb

let test_mean_signal_constant () =
  (* A phase-independent expression shows no population-average distortion. *)
  let rng = Rng.create 306 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:1000 ~times:[| 0.0; 60.0; 120.0 |] in
  Array.iter
    (fun s ->
      check_close ~tol:1e-12 "constant passes through" 3.0
        (Cellpop.Population.mean_signal params (fun ~phi:_ -> 3.0) s))
    snapshots

let test_total_volume_grows () =
  let rng = Rng.create 307 in
  let times = [| 0.0; 50.0; 100.0; 150.0; 200.0 |] in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:1000 ~times in
  let volumes =
    Array.map
      (fun s ->
        Array.fold_left
          (fun acc c -> acc +. Cellpop.Cell.volume params c)
          0.0 s.Cellpop.Population.cells)
      snapshots
  in
  for i = 0 to Array.length volumes - 2 do
    check_true "population volume increases" (volumes.(i + 1) > volumes.(i))
  done

let test_early_population_all_low_phase () =
  (* With a synchronized start, early snapshots contain no late-phase cells. *)
  let rng = Rng.create 308 in
  let snapshots = Cellpop.Population.simulate params ~rng ~n0:2000 ~times:[| 30.0 |] in
  Array.iter
    (fun (c : Cellpop.Cell.t) ->
      (* After 30 min of a >=30-min cycle, phase <= phi_sst + 30/T_min. *)
      check_true "early phases bounded" (c.Cellpop.Cell.phase < 0.15 *. 1.6 +. (30.0 /. 30.0)))
    snapshots.(0).Cellpop.Population.cells;
  (* More specifically, nobody has reached phase 0.6 after 30 minutes. *)
  let max_phase =
    Array.fold_left
      (fun acc (c : Cellpop.Cell.t) -> Float.max acc c.Cellpop.Cell.phase)
      0.0 snapshots.(0).Cellpop.Population.cells
  in
  check_true "no late-phase cells early" (max_phase < 0.6)

let tests =
  [
    ( "cellpop",
      [
        case "params presets" test_params_presets;
        case "sst density normalized" test_sst_density_normalized;
        case "draw statistics" test_draw_statistics;
        case "founders synchronized" test_founder_synchronized;
        case "founders uniform option" test_founder_uniform;
        case "daughter cells" test_daughters;
        case "advance and division time" test_advance_and_division_time;
        case "population growth" test_population_growth;
        case "phases in range" test_population_phases_in_range;
        case "simulation deterministic" test_population_deterministic;
        case "constant profile passes through" test_mean_signal_constant;
        case "total volume grows" test_total_volume_grows;
        case "synchronized start stays early" test_early_population_all_low_phase;
      ] );
  ]
