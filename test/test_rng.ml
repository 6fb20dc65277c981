open Numerics
open Testutil

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_close "same seed same stream" (Rng.float a) (Rng.float b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a = Rng.float b then incr same
  done;
  check_true "different seeds diverge" (!same < 4)

let test_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check_true "float in [0,1)" (x >= 0.0 && x < 1.0)
  done

let test_uniform_moments () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.uniform rng ~lo:2.0 ~hi:6.0) in
  check_close ~tol:0.05 "uniform mean" 4.0 (Stats.mean xs);
  check_close ~tol:0.05 "uniform variance" (16.0 /. 12.0) (Float.pow (Stats.std xs) 2.0)

let test_int_bounds () =
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Rng.int rng 10 in
    check_true "int in range" (k >= 0 && k < 10);
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> check_true "int roughly uniform" (c > 1600 && c < 2400)) counts

let test_normal_moments () =
  let rng = Rng.create 5 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mean:3.0 ~std:2.0) in
  check_close ~tol:0.03 "normal mean" 3.0 (Stats.mean xs);
  check_close ~tol:0.05 "normal std" 2.0 (Stats.std xs)

let test_normal_tail_fractions () =
  let rng = Rng.create 17 in
  let n = 100_000 in
  let inside = ref 0 in
  for _ = 1 to n do
    let x = Rng.normal rng ~mean:0.0 ~std:1.0 in
    if Float.abs x < 1.0 then incr inside
  done;
  check_close ~tol:0.01 "one-sigma mass" 0.6827 (float_of_int !inside /. float_of_int n)

let test_truncated_normal_bounds () =
  let rng = Rng.create 23 in
  for _ = 1 to 5_000 do
    let x = Rng.truncated_normal rng ~mean:0.15 ~std:0.02 ~lo:0.1 ~hi:0.2 in
    check_true "truncated in bounds" (x >= 0.1 && x <= 0.2)
  done

let test_truncated_normal_far_window () =
  (* Window far from the mean still terminates and respects bounds. *)
  let rng = Rng.create 29 in
  for _ = 1 to 200 do
    let x = Rng.truncated_normal rng ~mean:0.0 ~std:0.1 ~lo:5.0 ~hi:5.5 in
    check_true "far window in bounds" (x >= 5.0 && x <= 5.5)
  done

let test_truncated_normal_mean_shift () =
  let rng = Rng.create 31 in
  let n = 30_000 in
  let xs =
    Array.init n (fun _ -> Rng.truncated_normal rng ~mean:0.0 ~std:1.0 ~lo:0.0 ~hi:10.0)
  in
  (* Mean of the half-normal is sqrt(2/pi). *)
  check_close ~tol:0.02 "half-normal mean" (sqrt (2.0 /. Float.pi)) (Stats.mean xs)

let test_exponential_mean () =
  let rng = Rng.create 37 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng ~rate:0.5) in
  check_close ~tol:0.05 "exponential mean = 1/rate" 2.0 (Stats.mean xs)

let test_shuffle_is_permutation () =
  let rng = Rng.create 41 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle permutes" (Array.init 100 (fun i -> i)) sorted

let test_shuffle_moves_elements () =
  let rng = Rng.create 43 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let moved = ref 0 in
  Array.iteri (fun i x -> if i <> x then incr moved) a;
  check_true "shuffle moved most elements" (!moved > 80)

let test_split_independence () =
  let parent = Rng.create 47 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let xs = Array.init 2_000 (fun _ -> Rng.float child1) in
  let ys = Array.init 2_000 (fun _ -> Rng.float child2) in
  check_true "split streams decorrelated" (Float.abs (Stats.correlation xs ys) < 0.06)

let test_copy_preserves_state () =
  let a = Rng.create 53 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  check_close "copy continues identically" (Rng.float a) (Rng.float b)

let test_pick () =
  let rng = Rng.create 59 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.pick rng arr in
    check_true "pick from array" (x = 10 || x = 20 || x = 30)
  done

let tests =
  [
    ( "rng",
      [
        case "determinism" test_determinism;
        case "different seeds" test_different_seeds;
        case "float range" test_float_range;
        case "uniform moments" test_uniform_moments;
        case "int bounds and uniformity" test_int_bounds;
        case "normal moments" test_normal_moments;
        case "normal one-sigma mass" test_normal_tail_fractions;
        case "truncated normal bounds" test_truncated_normal_bounds;
        case "truncated normal far window" test_truncated_normal_far_window;
        case "truncated normal half-normal mean" test_truncated_normal_mean_shift;
        case "exponential mean" test_exponential_mean;
        case "shuffle is a permutation" test_shuffle_is_permutation;
        case "shuffle moves elements" test_shuffle_moves_elements;
        case "split independence" test_split_independence;
        case "copy preserves state" test_copy_preserves_state;
        case "pick membership" test_pick;
      ] );
  ]
