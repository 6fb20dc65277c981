open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:10

let candidate =
  lazy
    (Deconv.Schedule.candidates params ~rng:(Rng.create 1900) ~n_cells:1500
       ~times:(Array.init 19 (fun i -> 10.0 *. float_of_int i))
       ~n_phi:101 ~basis)

let test_candidate_shapes () =
  let c = Lazy.force candidate in
  Alcotest.(check (pair int int)) "design dims" (19, 10) (Mat.dims c.Deconv.Schedule.design)

let test_greedy_properties () =
  let c = Lazy.force candidate in
  let chosen = Deconv.Schedule.greedy c ~budget:6 in
  Alcotest.(check int) "budget respected" 6 (List.length chosen);
  (* Distinct, sorted, in range. *)
  let rec distinct_sorted = function
    | a :: (b :: _ as rest) -> a < b && distinct_sorted rest
    | _ -> true
  in
  check_true "distinct and sorted" (distinct_sorted chosen);
  List.iter (fun r -> check_true "in range" (r >= 0 && r < 19)) chosen

let test_greedy_beats_worst_schedule () =
  let c = Lazy.force candidate in
  let chosen = Deconv.Schedule.greedy c ~budget:5 in
  let optimal =
    Deconv.Schedule.log_det_information c.Deconv.Schedule.design ~rows:chosen ~ridge:1e-8
  in
  (* A pathological schedule: five nearly identical early times. *)
  let clustered = [ 0; 1; 2; 3; 4 ] in
  let bad =
    Deconv.Schedule.log_det_information c.Deconv.Schedule.design ~rows:clustered ~ridge:1e-8
  in
  check_true "greedy beats clustered schedule" (optimal > bad +. 1.0)

let test_information_monotone_in_rows () =
  let c = Lazy.force candidate in
  let base = [ 2; 8; 14 ] in
  let smaller = Deconv.Schedule.log_det_information c.Deconv.Schedule.design ~rows:base ~ridge:1e-8 in
  let larger =
    Deconv.Schedule.log_det_information c.Deconv.Schedule.design ~rows:(5 :: base) ~ridge:1e-8
  in
  check_true "adding a row cannot lose information" (larger >= smaller -. 1e-9)

let test_times_of () =
  let c = Lazy.force candidate in
  check_vec "row indices to times" [| 0.0; 50.0; 180.0 |]
    (Deconv.Schedule.times_of c [ 0; 5; 18 ])

let test_random_profile_properties () =
  let rng = Rng.create 1901 in
  for _ = 1 to 50 do
    let profile = Deconv.Study.random_profile rng in
    for j = 0 to 20 do
      let phi = float_of_int j /. 20.0 in
      check_true "nonnegative" (profile phi >= 0.0);
      check_true "bounded" (profile phi < 30.0)
    done
  done

let test_random_profiles_differ () =
  let rng = Rng.create 1902 in
  let p1 = Deconv.Study.random_profile rng in
  let p2 = Deconv.Study.random_profile rng in
  let grid = Vec.linspace 0.0 1.0 21 in
  check_true "profiles differ"
    (not (vec_approx_equal ~tol:1e-9 (Array.map p1 grid) (Array.map p2 grid)))

let test_study_summary () =
  let times = Array.init 13 (fun i -> 15.0 *. float_of_int i) in
  let config =
    { (Deconv.Pipeline.default_config ~times) with
      Deconv.Pipeline.n_cells_kernel = 800;
      n_cells_data = 800;
      n_phi = 101;
      seed = 3;
    }
  in
  let comparisons = Deconv.Study.recovery_distribution ~runs:5 config ~rng:(Rng.create 1903) in
  Alcotest.(check int) "five runs" 5 (Array.length comparisons);
  let s = Deconv.Study.summarize comparisons in
  Alcotest.(check int) "runs recorded" 5 s.Deconv.Study.runs;
  check_true "median correlation sensible" (s.Deconv.Study.median_correlation > 0.8);
  let q25, q75 = s.Deconv.Study.iqr_rmse in
  check_true "iqr ordered" (q25 <= q75);
  check_true "fraction in [0,1]"
    (s.Deconv.Study.fraction_above_09 >= 0.0 && s.Deconv.Study.fraction_above_09 <= 1.0)

let tests =
  [
    ( "schedule-design",
      [
        case "candidate shapes" test_candidate_shapes;
        case "greedy properties" test_greedy_properties;
        case "greedy beats clustered schedule" test_greedy_beats_worst_schedule;
        case "information monotonicity" test_information_monotone_in_rows;
        case "times_of" test_times_of;
      ] );
    ( "study",
      [
        case "random profiles nonnegative" test_random_profile_properties;
        case "random profiles differ" test_random_profiles_differ;
        case "summary statistics" test_study_summary;
      ] );
  ]
