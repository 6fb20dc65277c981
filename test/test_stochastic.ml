open Numerics
open Testutil

let test_poisson_moments () =
  let rng = Rng.create 1001 in
  List.iter
    (fun lambda ->
      let n = 40_000 in
      let xs = Array.init n (fun _ -> float_of_int (Rng.poisson rng ~lambda)) in
      check_close ~tol:(0.03 *. Float.max 1.0 lambda) "poisson mean" lambda (Stats.mean xs);
      check_close ~tol:(0.08 *. Float.max 1.0 lambda) "poisson variance" lambda (Float.pow (Stats.std xs) 2.0))
    [ 0.5; 3.0; 20.0; 150.0 ]

let test_poisson_zero () =
  let rng = Rng.create 1002 in
  Alcotest.(check int) "lambda 0" 0 (Rng.poisson rng ~lambda:0.0)

let test_network_validation () =
  let net = birth_death ~birth:2.0 ~death:1.0 in
  Alcotest.(check int) "one species" 1 (Stochastic.Reaction_network.num_species net)

let test_propensity_mass_action () =
  let r = { Stochastic.Reaction_network.reactants = [ (0, 1); (1, 1) ]; products = []; rate = 2.0 } in
  check_close "bimolecular" (2.0 *. 3.0 *. 4.0)
    (Stochastic.Reaction_network.propensity r [| 3; 4 |]);
  (* Homodimerization uses the C(x,2) combinatorial count. *)
  let dimer = { Stochastic.Reaction_network.reactants = [ (0, 2) ]; products = []; rate = 1.0 } in
  check_close "dimer count" (float_of_int (5 * 4 / 2))
    (Stochastic.Reaction_network.propensity dimer [| 5 |]);
  check_close "insufficient copies" 0.0 (Stochastic.Reaction_network.propensity dimer [| 1 |])

let test_total_propensity () =
  let net = birth_death ~birth:2.0 ~death:1.0 in
  check_close "birth plus death at 5 copies" 7.0
    (Stochastic.Reaction_network.total_propensity net [| 5 |]);
  check_close "only birth once extinct" 2.0
    (Stochastic.Reaction_network.total_propensity net [| 0 |]);
  let dimer =
    Stochastic.Reaction_network.create ~species:[ "A"; "A2" ]
      ~reactions:
        [
          { Stochastic.Reaction_network.reactants = [ (0, 2) ]; products = [ (1, 1) ]; rate = 0.5 };
          { Stochastic.Reaction_network.reactants = [ (1, 1) ]; products = [ (0, 2) ]; rate = 1.0 };
        ]
  in
  let state = [| 4; 3 |] in
  check_close "the sum of the reaction propensities"
    (Array.fold_left
       (fun acc r -> acc +. Stochastic.Reaction_network.propensity r state)
       0.0 dimer.Stochastic.Reaction_network.reactions)
    (Stochastic.Reaction_network.total_propensity dimer state);
  check_close "0.5 C(4,2) + 3" 6.0 (Stochastic.Reaction_network.total_propensity dimer state)

let test_apply_and_net_change () =
  let net = birth_death ~birth:2.0 ~death:1.0 in
  let state = [| 5 |] in
  Stochastic.Reaction_network.apply net.Stochastic.Reaction_network.reactions.(0) state;
  Alcotest.(check int) "birth applied" 6 state.(0);
  Stochastic.Reaction_network.apply net.Stochastic.Reaction_network.reactions.(1) state;
  Alcotest.(check int) "death applied" 5 state.(0)

let test_birth_death_stationary () =
  (* Stationary law is Poisson(birth/death): mean = variance = 10. *)
  let net = birth_death ~birth:10.0 ~death:1.0 in
  let rng = Rng.create 1003 in
  let trajectory = Stochastic.Gillespie.direct net ~rng ~x0:[| 0 |] ~t0:0.0 ~t1:500.0 in
  let samples =
    Array.init 400 (fun i ->
        Stochastic.Gillespie.value_at trajectory ~species:0 (100.0 +. float_of_int i))
  in
  check_close ~tol:0.8 "stationary mean" 10.0 (Stats.mean samples);
  check_close ~tol:2.5 "stationary variance" 10.0 (Float.pow (Stats.std samples) 2.0)

let test_trajectory_monotone_times () =
  let net = birth_death ~birth:5.0 ~death:0.5 in
  let trajectory =
    Stochastic.Gillespie.direct net ~rng:(Rng.create 1004) ~x0:[| 3 |] ~t0:0.0 ~t1:50.0
  in
  let times = trajectory.Stochastic.Gillespie.times in
  for i = 0 to Array.length times - 2 do
    check_true "event times increase" (times.(i) <= times.(i + 1))
  done;
  check_close "ends at t1" 50.0 times.(Array.length times - 1)

let test_extinction_stops () =
  (* Pure death: propensity reaches zero and the simulation stops cleanly. *)
  let net =
    Stochastic.Reaction_network.create ~species:[ "X" ]
      ~reactions:[ { Stochastic.Reaction_network.reactants = [ (0, 1) ]; products = []; rate = 5.0 } ]
  in
  let trajectory =
    Stochastic.Gillespie.direct net ~rng:(Rng.create 1005) ~x0:[| 10 |] ~t0:0.0 ~t1:100.0
  in
  let last = trajectory.Stochastic.Gillespie.states.(Array.length trajectory.Stochastic.Gillespie.states - 1) in
  Alcotest.(check int) "extinct" 0 last.(0)

let test_gillespie_deterministic_seed () =
  let net = birth_death ~birth:4.0 ~death:1.0 in
  let run () =
    Stochastic.Gillespie.direct net ~rng:(Rng.create 7) ~x0:[| 2 |] ~t0:0.0 ~t1:20.0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same event count"
    (Array.length a.Stochastic.Gillespie.times)
    (Array.length b.Stochastic.Gillespie.times)

let test_ssa_mean_matches_ode () =
  (* Ensemble SSA mean tracks the deterministic limit for the LV network. *)
  let p = Biomodels.Lotka_volterra.default_params in
  let volume = 150.0 in
  let net =
    Stochastic.Networks.lotka_volterra ~a:p.Biomodels.Lotka_volterra.a
      ~b:p.Biomodels.Lotka_volterra.b ~c:p.Biomodels.Lotka_volterra.c
      ~d:p.Biomodels.Lotka_volterra.d ~volume
  in
  let x0_counts =
    Stochastic.Networks.concentrations_to_counts ~volume Biomodels.Lotka_volterra.default_x0
  in
  let times = Vec.linspace 0.0 100.0 5 in
  let mean =
    mean_trajectory ~runs:40 net ~rng:(Rng.create 1006) ~x0:x0_counts ~times
  in
  let det = Biomodels.Lotka_volterra.simulate p ~x0:Biomodels.Lotka_volterra.default_x0 ~times in
  for i = 0 to 4 do
    check_close ~tol:0.25 "x1 mean-field"
      (Mat.get det.Ode.states i 0)
      (Mat.get mean i 0 /. volume);
    check_close ~tol:0.6 "x2 mean-field"
      (Mat.get det.Ode.states i 1)
      (Mat.get mean i 1 /. volume)
  done

let test_deterministic_rhs_matches_lv () =
  (* The network's mean-field RHS equals the analytic LV equations. *)
  let p = Biomodels.Lotka_volterra.default_params in
  let volume = 100.0 in
  let net =
    Stochastic.Networks.lotka_volterra ~a:p.Biomodels.Lotka_volterra.a
      ~b:p.Biomodels.Lotka_volterra.b ~c:p.Biomodels.Lotka_volterra.c
      ~d:p.Biomodels.Lotka_volterra.d ~volume
  in
  let rhs = deterministic_rhs net ~volume in
  let analytic _t y =
    let open Biomodels.Lotka_volterra in
    [| y.(0) *. (p.a -. (p.b *. y.(1))); y.(1) *. ((p.c *. y.(0)) -. p.d) |]
  in
  List.iter
    (fun state ->
      check_vec ~tol:1e-9 "rhs matches" (analytic 0.0 state) (rhs 0.0 state))
    [ [| 1.0; 2.0 |]; [| 0.4; 8.0 |]; [| 2.5; 0.5 |] ]

let test_telegraph_stationary_mean () =
  let tg = telegraph ~k_on:0.1 ~k_off:0.3 ~k_transcribe:2.0 ~k_degrade:0.1 in
  let trajectory =
    Stochastic.Gillespie.direct tg ~rng:(Rng.create 1008) ~x0:[| 1; 0; 0 |] ~t0:0.0 ~t1:3000.0
  in
  let samples =
    Array.init 2000 (fun i ->
        Stochastic.Gillespie.value_at trajectory ~species:2 (800.0 +. float_of_int i))
  in
  (* Mean = (k_tx / k_deg) * k_on/(k_on+k_off) = 20 * 0.25 = 5. *)
  check_close ~tol:0.8 "telegraph mean" 5.0 (Stats.mean samples);
  (* The two-state promoter makes mRNA super-Poissonian (variance > mean). *)
  check_true "super-poissonian" (Float.pow (Stats.std samples) 2.0 > Stats.mean samples)

let test_sample_matrix () =
  let net = birth_death ~birth:5.0 ~death:1.0 in
  let trajectory =
    Stochastic.Gillespie.direct net ~rng:(Rng.create 1009) ~x0:[| 2 |] ~t0:0.0 ~t1:10.0
  in
  let sampled = sample_trajectory trajectory ~times:[| 0.0; 5.0; 10.0 |] in
  Alcotest.(check (pair int int)) "sample dims" (3, 1) (Mat.dims sampled);
  check_close "initial state" 2.0 (Mat.get sampled 0 0)

let tests =
  [
    ( "stochastic",
      [
        case "poisson moments" test_poisson_moments;
        case "poisson zero" test_poisson_zero;
        case "network validation" test_network_validation;
        case "mass-action propensities" test_propensity_mass_action;
        case "total propensity" test_total_propensity;
        case "apply and net change" test_apply_and_net_change;
        case "birth-death stationary law" test_birth_death_stationary;
        case "trajectory time ordering" test_trajectory_monotone_times;
        case "extinction handled" test_extinction_stops;
        case "deterministic given seed" test_gillespie_deterministic_seed;
        case "SSA mean matches ODE" test_ssa_mean_matches_ode;
        case "mean-field RHS equals LV" test_deterministic_rhs_matches_lv;
        case "telegraph stationary mean" test_telegraph_stationary_mean;
        case "sample matrix" test_sample_matrix;
      ] );
  ]
