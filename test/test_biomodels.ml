open Numerics
open Testutil

let lv = Biomodels.Lotka_volterra.default_params
let lv_x0 = Biomodels.Lotka_volterra.default_x0

let test_lv_period () =
  let t = Biomodels.Lotka_volterra.period lv ~x0:lv_x0 in
  check_true "period near 150 minutes" (Float.abs (t -. 150.0) < 2.0)

let test_lv_equilibrium () =
  (* The coexistence fixed point (d/c, a/b) stays put under the flow. *)
  let eq = [| lv.Biomodels.Lotka_volterra.d /. lv.c; lv.a /. lv.b |] in
  let sol = Biomodels.Lotka_volterra.simulate lv ~x0:eq ~times:(Vec.linspace 0.0 150.0 4) in
  check_vec ~tol:1e-9 "fixed point" eq (Mat.row sol.Ode.states 3)

let test_lv_amplitudes () =
  (* Paper Fig. 2: x1 stays below ~3, x2 reaches ~12. *)
  let _, f1, f2 = Biomodels.Lotka_volterra.phase_profiles lv ~x0:lv_x0 ~n_phi:200 in
  check_true "x1 bounded" (Vec.max f1 < 3.5 && Vec.max f1 > 2.0);
  check_true "x2 amplitude" (Vec.max f2 > 9.0 && Vec.max f2 < 14.0);
  check_true "both positive" (Vec.min f1 > 0.0 && Vec.min f2 > 0.0)

let test_lv_profile_closes () =
  (* One full period: profile ends near where it starts. *)
  let _, f1, _ = Biomodels.Lotka_volterra.phase_profiles lv ~x0:lv_x0 ~n_phi:400 in
  check_true "profile closes" (Float.abs (f1.(399) -. f1.(0)) < 0.15 *. Vec.max f1)

let test_lv_conserved_quantity () =
  let v0 = lv_conserved lv lv_x0 in
  let times = Vec.linspace 0.0 450.0 91 in
  let sol = Biomodels.Lotka_volterra.simulate lv ~x0:lv_x0 ~times in
  for i = 0 to 90 do
    check_rel ~tol:1e-6 "invariant along flow" v0
      (lv_conserved lv (Mat.row sol.Ode.states i))
  done

let test_goodwin_oscillates () =
  let p = Biomodels.Goodwin.default_params in
  let t = Biomodels.Goodwin.period p ~x0:Biomodels.Goodwin.default_x0 in
  check_true "goodwin period near 150" (Float.abs (t -. 150.0) < 15.0)

let test_goodwin_profile () =
  let p = Biomodels.Goodwin.default_params in
  let phases, profile = Biomodels.Goodwin.phase_profile p ~x0:Biomodels.Goodwin.default_x0 ~n_phi:100 in
  Alcotest.(check int) "profile length" 100 (Array.length profile);
  check_close ~tol:1e-9 "phase grid midpoint convention" 0.005 phases.(0);
  check_true "oscillation has amplitude" (Vec.max profile -. Vec.min profile > 0.1 *. Vec.max profile);
  check_true "concentrations positive" (Vec.min profile > 0.0)

let test_repressilator_oscillates () =
  let p = Biomodels.Repressilator.default_params in
  let t = Biomodels.Repressilator.period p ~x0:Biomodels.Repressilator.default_x0 in
  check_true "repressilator period near 150" (Float.abs (t -. 150.0) < 15.0)

let test_repressilator_species_shifted () =
  (* The three mRNAs oscillate with phase shifts of a third of a period. *)
  let p = Biomodels.Repressilator.default_params in
  let x0 = Biomodels.Repressilator.default_x0 in
  let peak species =
    let _, m = Biomodels.Repressilator.phase_profile ~species p ~x0 ~n_phi:90 in
    Vec.argmax m
  in
  let p1 = peak 0 and p2 = peak 1 and p3 = peak 2 in
  (* Repression by p_{i-1} makes the genes fire in the order 1 -> 3 -> 2,
     each a third of a period apart. *)
  let shift a b = (b - a + 90) mod 90 in
  check_true "m3 lags m1 by a third" (shift p1 p3 > 15 && shift p1 p3 < 45);
  check_true "m2 lags m3 by a third" (shift p3 p2 > 15 && shift p3 p2 < 45)

let test_gene_profiles () =
  let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.1 ~height:2.0 () in
  check_close ~tol:1e-12 "pulse peak" 2.0 (pulse 0.5);
  check_true "pulse decays" (pulse 0.9 < 0.01);
  let const = Biomodels.Gene_profile.constant 7.0 in
  check_close "constant" 7.0 (const 0.123)

let test_from_samples () =
  let phases = [| 0.0; 0.5; 1.0 |] in
  let values = [| 1.0; 3.0; 2.0 |] in
  let f = Biomodels.Gene_profile.from_samples ~phases ~values in
  check_close ~tol:1e-12 "interpolates samples" 3.0 (f 0.5);
  check_close ~tol:1e-12 "clamps outside" 1.0 (f (-0.5))

let test_ftsz_profile_features () =
  let grid = Vec.linspace 0.0 1.0 201 in
  let values = Array.map Biomodels.Ftsz.profile grid in
  (* Documented biology: no transcription during the swarmer stage. *)
  check_true "delay present in truth"
    (Biomodels.Ftsz.delay_visible ~phases:grid ~values ~threshold:0.02);
  (* Peak near phi = 0.4. *)
  let peak_phase = grid.(Vec.argmax values) in
  check_true "peak near 0.4" (Float.abs (peak_phase -. 0.4) < 0.05);
  (* No subsequent increase after the maximum. *)
  check_true "post-peak drop"
    (Biomodels.Ftsz.post_peak_monotone_drop ~phases:grid ~values ~tolerance:0.02);
  (* Non-negative everywhere. *)
  check_true "profile nonnegative" (Vec.min values >= 0.0)

let test_ftsz_conservation_consistency () =
  (* The synthetic truth satisfies the division-conservation relation at the
     mean transition phase, where its transcription starts. *)
  let f = Biomodels.Ftsz.profile in
  check_close ~tol:0.05 "f(1) = 0.4 f(0) + 0.6 f(phi_sst)"
    ((0.4 *. f 0.0) +. (0.6 *. f Cellpop.Params.paper_2011.Cellpop.Params.mu_sst))
    (f 1.0)

let test_ftsz_detectors_reject_bad_profiles () =
  let grid = Vec.linspace 0.0 1.0 101 in
  (* A profile expressed from phase 0 has no delay. *)
  let no_delay = Array.map (fun phi -> 1.0 +. phi) grid in
  check_true "no delay detected"
    (not (Biomodels.Ftsz.delay_visible ~phases:grid ~values:no_delay ~threshold:0.02));
  (* A profile that rises again after its peak fails the drop test. *)
  let rebound = Array.map (fun phi -> Float.abs (Float.sin (2.0 *. Float.pi *. phi))) grid in
  check_true "rebound detected"
    (not (Biomodels.Ftsz.post_peak_monotone_drop ~phases:grid ~values:rebound ~tolerance:0.02))

let tests =
  [
    ( "biomodels",
      [
        case "LV period 150 min" test_lv_period;
        case "LV equilibrium" test_lv_equilibrium;
        case "LV amplitudes match Fig 2" test_lv_amplitudes;
        case "LV profile closes" test_lv_profile_closes;
        case "LV invariant" test_lv_conserved_quantity;
        case "Goodwin oscillates at 150 min" test_goodwin_oscillates;
        case "Goodwin phase profile" test_goodwin_profile;
        case "repressilator oscillates" test_repressilator_oscillates;
        case "repressilator phase shifts" test_repressilator_species_shifted;
        case "gene profile family" test_gene_profiles;
        case "profile from samples" test_from_samples;
        case "ftsz profile features" test_ftsz_profile_features;
        case "ftsz conservation consistency" test_ftsz_conservation_consistency;
        case "ftsz detectors reject bad profiles" test_ftsz_detectors_reject_bad_profiles;
      ] );
  ]
