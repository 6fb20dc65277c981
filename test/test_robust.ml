(* Robustness layer: typed errors, validators, fault injectors, the robust
   solve's one constrained attempt, and the guarded lambda/CSV satellites. *)

open Numerics
open Testutil

let params = Cellpop.Params.paper_2011
let times = Array.init 13 (fun i -> 15.0 *. float_of_int i)

let kernel =
  lazy
    (Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 700) ~n_cells:3000 ~times
       ~n_phi:101)

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12

let make_problem ?sigmas ?kernel:k measurements =
  let kernel = match k with Some k -> k | None -> Lazy.force kernel in
  Deconv.Problem.create ?sigmas ~kernel ~basis ~measurements ~params ()

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()
let clean_data = lazy (Deconv.Forward.apply_fn (Lazy.force kernel) pulse)

let rng () = Rng.create 42

let degradation r = r.Robust.Report.degradation

(* The one-attempt contract: every Ok report holds exactly one successful
   constrained QP attempt. *)
let one_constrained_attempt r =
  match r.Robust.Report.attempts with
  | [ { Robust.Report.stage = Robust.Report.Constrained_qp; outcome = Ok (); _ } ] -> true
  | _ -> false

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "expected Ok, got Error (%s)" (Robust.Error.to_string e)

let expect_error_class expected = function
  | Ok _ -> Alcotest.failf "expected Error (%s), got Ok" (Robust.Error.to_string expected)
  | Error e ->
    if not (same_class expected e) then
      Alcotest.failf "expected error class %s, got %s"
        (Robust.Error.to_string expected)
        (Robust.Error.to_string e)

let finite_estimate (e : Deconv.Solver.estimate) =
  Robust.Validate.all_finite e.Deconv.Solver.alpha
  && Robust.Validate.all_finite e.Deconv.Solver.profile
  && Robust.Validate.all_finite e.Deconv.Solver.fitted
  && Float.is_finite e.Deconv.Solver.cost

(* ---------------- Error taxonomy ---------------- *)

let all_errors =
  [
    Robust.Error.Ill_conditioned { cond = 1e12 };
    Robust.Error.Qp_stalled { iterations = 100 };
    Robust.Error.Non_finite { stage = "measurements" };
    Robust.Error.Invalid_input { field = "sigmas"; why = "zero" };
    Robust.Error.Kernel_degenerate;
  ]

let test_error_strings () =
  List.iter
    (fun e -> check_true "to_string non-empty" (String.length (Robust.Error.to_string e) > 0))
    all_errors

let test_error_classes () =
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check bool)
            "same_class iff same constructor" (i = j) (same_class a b))
        all_errors)
    all_errors;
  check_true "equal ignores nothing"
    (not
       (Robust.Error.equal
          (Robust.Error.Qp_stalled { iterations = 1 })
          (Robust.Error.Qp_stalled { iterations = 2 })));
  check_true "same_class ignores payload"
    (same_class
       (Robust.Error.Qp_stalled { iterations = 1 })
       (Robust.Error.Qp_stalled { iterations = 2 }))

(* ---------------- Validators ---------------- *)

let test_validate_times () =
  expect_ok (Robust.Validate.times ~field:"t" [| 0.0; 1.0; 1.0; 2.0 |]);
  expect_error_class
    (Robust.Error.Invalid_input { field = "t"; why = "" })
    (Robust.Validate.times ~field:"t" [| 0.0; 2.0; 1.0 |]);
  expect_error_class
    (Robust.Error.Invalid_input { field = "t"; why = "" })
    (Robust.Validate.times ~field:"t" [| -1.0; 0.0 |]);
  expect_error_class
    (Robust.Error.Non_finite { stage = "t" })
    (Robust.Validate.times ~field:"t" [| 0.0; Float.nan |])

let test_validate_sigmas () =
  expect_ok (Robust.Validate.sigmas [| 0.5; 1.0 |]);
  List.iter
    (fun bad ->
      expect_error_class
        (Robust.Error.Invalid_input { field = "sigmas"; why = "" })
        (Robust.Validate.sigmas [| 1.0; bad |]))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_usable_sigma () =
  List.iter
    (fun s -> check_true (Printf.sprintf "sigma %g is usable" s) (Robust.Validate.usable_sigma s))
    [ 1.0; 0.05; 1e-100; 1e100 ];
  List.iter
    (fun s ->
      check_true (Printf.sprintf "sigma %g is not usable" s)
        (not (Robust.Validate.usable_sigma s)))
    [ 0.0; -0.5; Float.nan; Float.infinity; Float.neg_infinity; 1e-160; 1e160 ]

let test_error_of_exn () =
  let typed = Robust.Error.Qp_stalled { iterations = 7 } in
  check_true "a typed error unwraps to itself"
    (Robust.Error.equal typed (Robust.Error.of_exn (Robust.Error.Error typed)));
  match Robust.Error.of_exn (Failure "disk on fire") with
  | Robust.Error.Unexpected { description } ->
    check_true "the printed exception is kept"
      (contains ~needle:"disk on fire" description)
  | e -> Alcotest.failf "expected Unexpected, got %s" (Robust.Error.to_string e)

let test_validate_kernel_clean () = expect_ok (Robust.Validate.kernel (Lazy.force kernel))

let test_validate_kernel_faults () =
  let k = Lazy.force kernel in
  expect_error_class
    (Robust.Error.Non_finite { stage = "kernel" })
    (Robust.Validate.kernel
       (Robust.Fault.apply (Faults.kernel_nan_column ~column:7 ()) (rng ()) k));
  expect_error_class Robust.Error.Kernel_degenerate
    (Robust.Validate.kernel
       (Robust.Fault.apply (Faults.kernel_zero_row ~row:3 ()) (rng ()) k));
  expect_error_class
    (Robust.Error.Invalid_input { field = "kernel times"; why = "" })
    (Robust.Validate.kernel (Robust.Fault.apply Faults.kernel_shuffle_times (rng ()) k));
  (* A duplicated time point is structurally legal (ties allowed) — it must
     pass validation and instead stress the solver downstream. *)
  expect_ok
    (Robust.Validate.kernel
       (Robust.Fault.apply (Faults.kernel_duplicate_time ~row:6 ()) (rng ()) k))

let test_problem_validate () =
  expect_ok (Deconv.Problem.validate (make_problem (Lazy.force clean_data)));
  expect_error_class
    (Robust.Error.Non_finite { stage = "measurements" })
    (Deconv.Problem.validate
       (make_problem
          (Robust.Fault.apply (Robust.Fault.nan_at ~index:4 ()) (rng ()) (Lazy.force clean_data))));
  expect_error_class
    (Robust.Error.Invalid_input { field = "sigmas"; why = "" })
    (Deconv.Problem.validate
       (make_problem
          ~sigmas:(Robust.Fault.apply (Faults.zero_at ~index:2 ()) (rng ()) (Vec.ones 13))
          (Lazy.force clean_data)))

(* ---------------- Fault injectors ---------------- *)

let test_faults_pure () =
  let v = Lazy.force clean_data in
  let before = Array.copy v in
  List.iter
    (fun f -> ignore (Robust.Fault.apply f (rng ()) v))
    [
      Robust.Fault.nan_at ();
      Faults.inf_at ();
      Faults.zero_at ();
      Faults.negate_at ();
      Faults.spike ~magnitude:10.0 ();
      Faults.shuffle;
    ];
  check_vec ~tol:0.0 "injectors never mutate their input" before v

let test_fault_nan_inf () =
  let v = Vec.ones 8 in
  let nan = Robust.Fault.apply (Robust.Fault.nan_at ~index:3 ()) (rng ()) v in
  check_true "exactly one NaN" (Float.is_nan nan.(3));
  Alcotest.(check int) "one corrupted entry" 7
    (Array.length (Array.of_list (List.filter Float.is_finite (Array.to_list nan))));
  let inf = Robust.Fault.apply (Faults.inf_at ~index:0 ()) (rng ()) v in
  check_true "infinity planted" (inf.(0) = Float.infinity)

let test_fault_shuffle () =
  let v = Array.init 9 float_of_int in
  let s = Robust.Fault.apply Faults.shuffle (rng ()) v in
  check_true "order changed" (s <> v);
  let sorted a = List.sort compare (Array.to_list a) in
  check_true "same multiset" (sorted s = sorted v)

let test_fault_spike () =
  let v = Array.make 5 2.0 in
  let s = Robust.Fault.apply (Faults.spike ~index:1 ~magnitude:3.0 ()) (rng ()) v in
  (* ‖v‖∞ = 2, so the spike adds 3 · 2 = 6. *)
  check_close ~tol:1e-12 "spike magnitude relative to scale" 8.0 s.(1)

let test_fault_compose () =
  let f =
    Faults.compose [ Robust.Fault.nan_at ~index:0 (); Faults.zero_at ~index:5 () ]
  in
  let v = Robust.Fault.apply f (rng ()) (Vec.ones 8) in
  check_true "first component applied" (Float.is_nan v.(0));
  check_close ~tol:0.0 "second component applied" 0.0 v.(5);
  check_true "composed name mentions both"
    (let n = f.Robust.Fault.name in
     String.length n > String.length "nan_at")

let test_fault_duplicate_time () =
  let k = Lazy.force kernel in
  let k' = Robust.Fault.apply (Faults.kernel_duplicate_time ~row:6 ()) (rng ()) k in
  check_close ~tol:0.0 "time stamp duplicated" k'.Cellpop.Kernel.times.(5)
    k'.Cellpop.Kernel.times.(6);
  check_vec ~tol:0.0 "row duplicated" (Cellpop.Kernel.row k' 5) (Cellpop.Kernel.row k' 6);
  check_true "original kernel untouched"
    (k.Cellpop.Kernel.times.(5) <> k.Cellpop.Kernel.times.(6))

let test_choose_rows () =
  let chosen = Robust.Fault.choose_rows (rng ()) ~k:5 ~rows:12 in
  Alcotest.(check int) "k rows" 5 (Array.length chosen);
  Array.iteri
    (fun i r ->
      check_true "in range" (r >= 0 && r < 12);
      if i > 0 then check_true "strictly ascending, so distinct" (chosen.(i - 1) < r))
    chosen;
  Alcotest.(check (array int)) "k = rows takes every row" (Array.init 4 (fun i -> i))
    (Robust.Fault.choose_rows (rng ()) ~k:4 ~rows:4);
  Alcotest.(check (array int)) "k = 0 takes none" [||]
    (Robust.Fault.choose_rows (rng ()) ~k:0 ~rows:4);
  List.iter
    (fun k ->
      match Robust.Fault.choose_rows (rng ()) ~k ~rows:4 with
      | exception Robust.Error.Error (Robust.Error.Invalid_input { field; _ }) ->
        Alcotest.(check string) "field" "k" field
      | _ -> Alcotest.failf "k = %d of 4 rows was accepted" k)
    [ -1; 5 ]

let test_poison_sigma_rows () =
  let sigmas = Mat.init 5 4 (fun i j -> 0.1 +. float_of_int ((i * 4) + j)) in
  let before = Mat.copy sigmas in
  let rows = [| 1; 3 |] in
  let poisoned = Robust.Fault.apply (Robust.Fault.poison_sigma_rows ~rows) (rng ()) sigmas in
  check_true "input untouched" (mat_approx_equal ~tol:0.0 before sigmas);
  for i = 0 to 4 do
    let zeros =
      Array.fold_left (fun n s -> if Float.equal s 0.0 then n + 1 else n) 0 (Mat.row poisoned i)
    in
    if Array.mem i rows then Alcotest.(check int) "one zero sigma in a poisoned row" 1 zeros
    else check_vec ~tol:0.0 "clean row unchanged" (Mat.row sigmas i) (Mat.row poisoned i)
  done;
  check_true "a poisoned row fails validation"
    (Result.is_error (Robust.Validate.sigmas (Mat.row poisoned 3)))

let test_crash_after () =
  Robust.Fault.crash_after ~genes:10 ~done_:4 ~total:20;
  Robust.Fault.crash_after ~genes:10 ~done_:9 ~total:20;
  match Robust.Fault.crash_after ~genes:10 ~done_:12 ~total:20 with
  | exception Robust.Fault.Injected_crash { done_; total } ->
    Alcotest.(check (pair int int)) "crash carries the progress" (12, 20) (done_, total)
  | () -> Alcotest.fail "no crash once the gene count was reached"

(* ---------------- solve_robust: clean path ---------------- *)

let test_clean_matches_solve () =
  let problem = make_problem (Lazy.force clean_data) in
  let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda:1e-4 problem) in
  Alcotest.(check int) "degradation 0" 0 (degradation report);
  check_true "one constrained attempt" (one_constrained_attempt report);
  check_true "no repairs" (report.Robust.Report.repairs = []);
  Alcotest.(check int) "single attempt" 1 (Robust.Report.num_attempts report);
  check_true "condition estimated" (report.Robust.Report.condition >= 1.0);
  let reference = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_vec ~tol:0.0 "identical to Solver.solve" reference.Deconv.Solver.alpha
    est.Deconv.Solver.alpha

let prop_clean_equals_solve =
  qcheck ~count:6 "solve_robust == solve on clean problems"
    QCheck2.Gen.(int_range 2 4)
    (fun e ->
      let lambda = 10.0 ** float_of_int (-e) in
      let problem = make_problem (Lazy.force clean_data) in
      let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda problem) in
      let reference = Deconv.Solver.solve ~lambda problem in
      degradation report = 0
      && vec_approx_equal ~tol:0.0 reference.Deconv.Solver.alpha est.Deconv.Solver.alpha)

(* ---------------- solve_robust: preconditioning ---------------- *)

let first_attempt_ridge report =
  match report.Robust.Report.attempts with
  | a :: _ -> a.Robust.Report.ridge
  | [] -> Alcotest.fail "no attempt recorded"

(* 20 coefficients against 13 measurements with no penalty: the normal
   matrix is not SPD, so the condition number is infinite and the first
   constrained attempt already carries the preemptive ridge floor. *)
let test_singular_system_preconditioned () =
  let wide = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:20 in
  let problem =
    Deconv.Problem.create ~kernel:(Lazy.force kernel) ~basis:wide
      ~measurements:(Lazy.force clean_data) ~params ()
  in
  let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda:0.0 problem) in
  check_true "condition infinite" (report.Robust.Report.condition = Float.infinity);
  check_true "first attempt carries a ridge" (first_attempt_ridge report > 0.0);
  Alcotest.(check int) "degradation 1" 1 (degradation report);
  check_true "one constrained attempt" (one_constrained_attempt report);
  check_true "estimate finite" (finite_estimate est)

(* A finite κ above the policy's limit takes the same branch: the ridge is
   the policy's floor on the normal matrix's scale. With the limit above κ
   the same solve is pristine. *)
let test_condition_limit_preconditions () =
  let problem = make_problem (Lazy.force clean_data) in
  let solve condition_limit =
    expect_ok
      (Deconv.Solver.solve_robust
         ~policy:{ Deconv.Solver.default_policy with Deconv.Solver.condition_limit }
         ~lambda:1e-4 problem)
  in
  let _, pristine = solve Float.infinity in
  let kappa = pristine.Robust.Report.condition in
  check_true "condition finite" (Float.is_finite kappa && kappa >= 1.0);
  check_close ~tol:0.0 "no ridge under the limit" 0.0 (first_attempt_ridge pristine);
  Alcotest.(check int) "degradation 0 under the limit" 0 (degradation pristine);
  let est, report = solve (kappa /. 2.0) in
  check_close ~tol:0.0 "same condition estimate" kappa report.Robust.Report.condition;
  check_true "first attempt carries a ridge" (first_attempt_ridge report > 0.0);
  Alcotest.(check int) "degradation 1" 1 (degradation report);
  check_true "one constrained attempt" (one_constrained_attempt report);
  check_true "estimate finite" (finite_estimate est)

(* ---------------- solve_robust: repair and typed errors ---------------- *)

let test_nan_measurement_repaired () =
  let poisoned =
    Robust.Fault.apply (Robust.Fault.nan_at ~index:4 ()) (rng ()) (Lazy.force clean_data)
  in
  let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda:1e-4 (make_problem poisoned)) in
  check_true "estimate finite" (finite_estimate est);
  check_true "repair recorded"
    (List.exists
       (fun r -> r.Robust.Report.count = 1)
       report.Robust.Report.repairs);
  check_true "degradation >= 1 after repair" (degradation report >= 1);
  (* Masking one of 13 points should barely move the estimate. *)
  let reference = Deconv.Solver.solve ~lambda:1e-4 (make_problem (Lazy.force clean_data)) in
  check_true "still close to the clean fit"
    (Stats.rmse reference.Deconv.Solver.profile est.Deconv.Solver.profile < 0.5)

let test_zero_sigma_repaired () =
  let sigmas = Robust.Fault.apply (Faults.zero_at ~index:2 ()) (rng ()) (Array.make 13 0.1) in
  let est, report =
    expect_ok (Deconv.Solver.solve_robust ~lambda:1e-4 (make_problem ~sigmas (Lazy.force clean_data)))
  in
  check_true "estimate finite" (finite_estimate est);
  check_true "sigma repair recorded"
    (List.exists (fun r -> r.Robust.Report.count = 1) report.Robust.Report.repairs)

let test_repair_problem_clean_is_identity () =
  let problem = make_problem (Lazy.force clean_data) in
  let repaired, repairs = Deconv.Solver.repair_problem problem in
  check_true "no repairs" (repairs = []);
  check_true "the same problem comes back" (repaired == problem)

let test_repair_problem_masks_and_replaces () =
  let sigmas = Array.init 13 (fun i -> 0.1 +. (0.01 *. float_of_int i)) in
  let bad_sigmas = Array.copy sigmas in
  bad_sigmas.(2) <- 0.0;
  let data = Array.copy (Lazy.force clean_data) in
  data.(4) <- Float.nan;
  let problem = make_problem ~sigmas:bad_sigmas data in
  let repaired, repairs = Deconv.Solver.repair_problem problem in
  Alcotest.(check (list (pair string int))) "masking is reported before sigma repair"
    [ ("masked non-finite measurements", 1); ("replaced invalid sigmas", 1) ]
    (List.map (fun r -> (r.Robust.Report.action, r.Robust.Report.count)) repairs);
  let meas = repaired.Deconv.Problem.measurements and sig_ = repaired.Deconv.Problem.sigmas in
  check_close ~tol:0.0 "masked measurement is zero" 0.0 meas.(4);
  check_true "masked sigma is finite" (Float.is_finite sig_.(4));
  check_true "masked weight vanishes" ((Deconv.Problem.weights repaired).(4) < 1e-200);
  check_close ~tol:0.0 "bad sigma becomes the median of the valid ones" sigmas.(7) sig_.(2);
  List.iter
    (fun i ->
      check_close ~tol:0.0 "untouched measurement" data.(i) meas.(i);
      check_close ~tol:0.0 "untouched sigma" sigmas.(i) sig_.(i))
    [ 0; 3; 5; 12 ];
  check_true "the input problem is not mutated"
    (Float.is_nan problem.Deconv.Problem.measurements.(4)
    && Float.equal problem.Deconv.Problem.sigmas.(2) 0.0);
  check_true "the design matrix is shared"
    (repaired.Deconv.Problem.design == problem.Deconv.Problem.design)

let test_repair_disabled_reports_error () =
  let poisoned =
    Robust.Fault.apply (Robust.Fault.nan_at ~index:4 ()) (rng ()) (Lazy.force clean_data)
  in
  let policy = { Deconv.Solver.default_policy with Deconv.Solver.repair_inputs = false } in
  expect_error_class
    (Robust.Error.Non_finite { stage = "measurements" })
    (Deconv.Solver.solve_robust ~policy ~lambda:1e-4 (make_problem poisoned))

let test_degenerate_kernel_is_terminal () =
  let k = Robust.Fault.apply (Faults.kernel_zero_row ~row:3 ()) (rng ()) (Lazy.force kernel) in
  expect_error_class Robust.Error.Kernel_degenerate
    (Deconv.Solver.solve_robust ~lambda:1e-4 (make_problem ~kernel:k (Lazy.force clean_data)))

(* A one-pass cap on a problem whose positivity rows need a second pass:
   the one attempt stalls and its typed error, with the pass it spent, is
   the result. There is no later stage to hand the problem to. *)
let test_stall_is_typed_error () =
  let clean = make_problem (Lazy.force clean_data) in
  check_true "the clean problem needs a second pass"
    ((Deconv.Solver.solve ~lambda:1e-4 clean).Deconv.Solver.qp_iterations >= 2);
  let policy = { Deconv.Solver.default_policy with Deconv.Solver.qp_max_iter = 1 } in
  match Deconv.Solver.solve_robust ~policy ~lambda:1e-4 clean with
  | Error e ->
    check_true
      (Printf.sprintf "Qp_stalled after 1 iteration, got %s" (Robust.Error.to_string e))
      (Robust.Error.equal e (Robust.Error.Qp_stalled { iterations = 1 }))
  | Ok _ -> Alcotest.fail "a one-pass cap returned an estimate"

let test_duplicate_time_kernel_recovered () =
  let k =
    Robust.Fault.apply (Faults.kernel_duplicate_time ~row:6 ()) (rng ()) (Lazy.force kernel)
  in
  let measurements =
    Robust.Fault.apply (Faults.spike ~index:6 ~magnitude:0.5 ()) (rng ())
      (Lazy.force clean_data)
  in
  let est, report =
    expect_ok (Deconv.Solver.solve_robust ~lambda:1e-6 (make_problem ~kernel:k measurements))
  in
  check_true "estimate finite" (finite_estimate est);
  check_true "one constrained attempt" (one_constrained_attempt report)

let test_report_to_string () =
  let _, report =
    expect_ok (Deconv.Solver.solve_robust ~lambda:1e-4 (make_problem (Lazy.force clean_data)))
  in
  let text = Robust.Report.to_string report in
  check_true "names the solving stage" (contains ~needle:"solved by constrained QP" text);
  check_true "states the degradation level" (contains ~needle:"degradation level 0" text)

(* ---------------- Overflowing weights and stall pins ---------------- *)

(* σ = 1e-160 is finite and positive but its weight 1/σ² overflows to
   infinity: validation must reject it as a bad sigma, and repair must
   replace it like any other invalid sigma. *)
let overflow_sigmas () =
  let s = Array.make 13 0.1 in
  s.(2) <- 1e-160;
  s

let test_overflowing_weight_rejected () =
  let sigmas = overflow_sigmas () in
  expect_error_class
    (Robust.Error.Invalid_input { field = "sigmas"; why = "" })
    (Deconv.Problem.validate (make_problem ~sigmas (Lazy.force clean_data)));
  let batch = Deconv.Batch.prepare ~kernel:(Lazy.force kernel) ~basis ~params () in
  expect_error_class
    (Robust.Error.Invalid_input { field = "sigmas"; why = "" })
    (Deconv.Batch.solve_gene_result batch ~sigmas ~measurements:(Lazy.force clean_data) ())

let test_overflowing_weight_repaired () =
  let problem = make_problem ~sigmas:(overflow_sigmas ()) (Lazy.force clean_data) in
  let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda:1e-4 problem) in
  check_true "estimate finite" (finite_estimate est);
  check_true "degradation >= 1 after repair" (degradation report >= 1);
  check_true "sigma repair recorded"
    (List.exists
       (fun r -> String.equal r.Robust.Report.action "replaced invalid sigmas")
       report.Robust.Report.repairs)

(* Batch checks the shared kernel and basis once, in prepare, and only the
   measurements and sigmas per gene: every combination of a kernel fault
   and a data fault must still give Problem.validate's error, in its
   kernel -> basis -> measurements -> sigmas precedence. *)
let test_batch_validation_matches_problem () =
  let k = Lazy.force kernel in
  let kernels =
    [
      ("clean kernel", k);
      ("NaN column", Robust.Fault.apply (Faults.kernel_nan_column ~column:7 ()) (rng ()) k);
      ("zero row", Robust.Fault.apply (Faults.kernel_zero_row ~row:3 ()) (rng ()) k);
      ("shuffled times", Robust.Fault.apply Faults.kernel_shuffle_times (rng ()) k);
    ]
  in
  let data = Lazy.force clean_data and sigmas = Array.make 13 0.1 in
  let nan_data = Robust.Fault.apply (Robust.Fault.nan_at ~index:4 ()) (rng ()) data in
  let zero_sigmas = Robust.Fault.apply (Faults.zero_at ~index:2 ()) (rng ()) sigmas in
  let genes =
    [
      ("clean data", data, sigmas);
      ("NaN measurement", nan_data, sigmas);
      ("zero sigma", data, zero_sigmas);
      ("NaN and zero sigma", nan_data, zero_sigmas);
    ]
  in
  List.iter
    (fun (kname, kernel) ->
      let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
      List.iter
        (fun (gname, measurements, sigmas) ->
          let label = kname ^ ", " ^ gname in
          let problem = Deconv.Problem.create ~sigmas ~kernel ~basis ~measurements ~params () in
          match
            ( Deconv.Problem.validate problem,
              Deconv.Batch.solve_gene_result batch ~sigmas ~lambda:(`Fixed 1e-4) ~measurements () )
          with
          | Ok (), Ok _ -> ()
          | Error expected, Error got ->
            check_true
              (Printf.sprintf "%s: %s, expected %s" label (Robust.Error.to_string got)
                 (Robust.Error.to_string expected))
              (Robust.Error.equal expected got)
          | Ok (), Error e ->
            Alcotest.failf "%s: valid gene failed: %s" label (Robust.Error.to_string e)
          | Error e, Ok _ ->
            Alcotest.failf "%s: invalid gene (%s) solved" label (Robust.Error.to_string e))
        genes)
    kernels

let test_validate_data_skips_kernel () =
  let k = Robust.Fault.apply (Faults.kernel_zero_row ~row:3 ()) (rng ()) (Lazy.force kernel) in
  let problem = make_problem ~kernel:k (Lazy.force clean_data) in
  expect_error_class Robust.Error.Kernel_degenerate (Deconv.Problem.validate problem);
  expect_ok (Deconv.Problem.validate_data problem);
  expect_error_class
    (Robust.Error.Non_finite { stage = "measurements" })
    (Deconv.Problem.validate_data
       (make_problem ~kernel:k
          (Robust.Fault.apply (Robust.Fault.nan_at ~index:4 ()) (rng ()) (Lazy.force clean_data))))

(* Weights of 1e300 pass validation and the dual active-set method solves
   them exactly: a finite estimate, positive on the grid to the QP's
   feasibility tolerance. *)
let test_solve_huge_weights () =
  let problem = make_problem ~sigmas:(Array.make 13 1e-150) (Lazy.force clean_data) in
  let est = Deconv.Solver.solve ~lambda:1e-4 problem in
  check_true "estimate finite" (finite_estimate est);
  let profile = est.Deconv.Solver.profile in
  let lowest = Array.fold_left Float.min Float.infinity profile in
  check_true
    (Printf.sprintf "estimate feasible (min %g)" lowest)
    (lowest >= -1e-9 *. Float.max 1.0 (Vec.norm_inf profile))

(* ---------------- the one-attempt contract ---------------- *)

(* Every input family the robust solve repairs or preconditions, over
   bases with fewer and more coefficients than measurements and λ from 0
   (not SPD on the wide basis) to heavy smoothing: each solve is answered
   by its one constrained attempt at degradation 0 or 1, and the estimate
   keeps the paper's constraints. *)
let sweep_inputs =
  let data () = Lazy.force clean_data and sigmas () = Array.make 13 0.1 in
  let faulty_data fault () = (Robust.Fault.apply fault (rng ()) (data ()), sigmas ()) in
  [
    ("none", fun () -> (data (), sigmas ()));
    ("NaN", faulty_data (Robust.Fault.nan_at ~index:4 ()));
    ( "zero sigma",
      fun () -> (data (), Robust.Fault.apply (Faults.zero_at ~index:2 ()) (rng ()) (sigmas ())) );
    ("1e-160 sigma", fun () -> (data (), overflow_sigmas ()));
    ("spike", faulty_data (Faults.spike ~index:6 ~magnitude:0.5 ()));
  ]

let test_one_attempt_sweep fault input () =
  let measurements, sigmas = input () in
  List.iter
    (fun knots ->
      let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:knots in
      let problem =
        Deconv.Problem.create ~sigmas ~kernel:(Lazy.force kernel) ~basis ~measurements ~params ()
      in
      let conservation = Deconv.Constraints.conservation_row params basis in
      let rate = Deconv.Constraints.rate_continuity_row params basis in
      List.iter
        (fun lambda ->
          let label = Printf.sprintf "%s, %d knots, lambda %g" fault knots lambda in
          let est, report = expect_ok (Deconv.Solver.solve_robust ~lambda problem) in
          check_true (label ^ ": one constrained attempt") (one_constrained_attempt report);
          check_true (label ^ ": degradation <= 1") (degradation report <= 1);
          check_true (label ^ ": estimate finite") (finite_estimate est);
          let alpha = est.Deconv.Solver.alpha in
          let scale = 1.0 +. Vec.norm_inf alpha in
          check_true (label ^ ": conservation holds")
            (Float.abs (Vec.dot conservation alpha) <= 1e-9 *. scale);
          check_true (label ^ ": rate continuity holds")
            (Float.abs (Vec.dot rate alpha) <= 1e-9 *. scale);
          check_true (label ^ ": positive on the grid")
            (Vec.min est.Deconv.Solver.profile >= -1e-6 *. scale))
        [ 0.0; 1e-9; 1e-4; 1e2 ])
    [ 6; 20 ]

(* ---------------- Pipeline end-to-end ---------------- *)

let small_config =
  {
    (Deconv.Pipeline.default_config ~times) with
    Deconv.Pipeline.n_cells_kernel = 1500;
    n_cells_data = 1500;
    n_phi = 101;
    seed = 11;
  }

let test_pipeline_nan_poisoned_completes () =
  let config =
    {
      small_config with
      Deconv.Pipeline.measurement_fault = Some (Robust.Fault.nan_at ~index:5 ());
    }
  in
  let run = Deconv.Pipeline.run config ~profile:pulse in
  check_true "estimate finite" (finite_estimate run.Deconv.Pipeline.estimate);
  check_true "repair on record"
    (run.Deconv.Pipeline.report.Robust.Report.repairs <> []);
  check_true "recovery still good"
    (run.Deconv.Pipeline.recovery.Deconv.Metrics.correlation > 0.9)

let test_pipeline_clean_reports_degradation_zero () =
  let run = Deconv.Pipeline.run small_config ~profile:pulse in
  Alcotest.(check int) "no degradation on clean data" 0
    run.Deconv.Pipeline.report.Robust.Report.degradation

(* ---------------- QP status satellite ---------------- *)

let stall_problem () =
  (* A QP with active inequalities that cannot converge in one step. *)
  let h = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let g = [| -2.0; -2.0 |] in
  let a_ineq = Mat.of_rows [| [| -1.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  let b_ineq = [| -0.5; -0.5 |] in
  { Optimize.Qp.h; g; ineq = Some (a_ineq, b_ineq) }

let test_qp_stall_status () =
  let s = Optimize.Qp.solve ~max_iter:1 (stall_problem ()) in
  check_true "reports stall" (s.Optimize.Qp.status = Optimize.Qp.Stalled);
  Alcotest.(check int) "iteration count" 1 s.Optimize.Qp.iterations;
  let converged = Optimize.Qp.solve (stall_problem ()) in
  check_true "converges with the full budget"
    (converged.Optimize.Qp.status = Optimize.Qp.Converged)

(* ---------------- Lambda guard satellite ---------------- *)

let test_lambda_skips_non_finite_candidates () =
  let problem = make_problem (Lazy.force clean_data) in
  let lambdas = [| Float.nan; 1e-5; Float.infinity; 1e-3; -1.0 |] in
  let lambda = Deconv.Lambda.select problem ~method_:`Gcv ~lambdas () in
  check_true "winner from the finite candidates" (Float.equal lambda 1e-5 || Float.equal lambda 1e-3)

let test_lambda_all_non_finite () =
  let problem = make_problem (Lazy.force clean_data) in
  let lambdas = [| Float.nan; Float.infinity; -1.0 |] in
  expect_error_class
    (Robust.Error.Non_finite { stage = "" })
    (Deconv.Lambda.select_result problem ~method_:`Gcv ~lambdas ());
  expect_error_class
    (Robust.Error.Invalid_input { field = "lambda"; why = "" })
    (Deconv.Lambda.select_result problem ~method_:(`Fixed Float.nan) ());
  (match Deconv.Lambda.select problem ~method_:`Lcurve ~lambdas () with
  | exception Robust.Error.Error (Robust.Error.Non_finite _) -> ()
  | _ -> Alcotest.fail "raising form should raise the typed error")

(* Selector arguments no candidate can fix come back as Invalid_input on
   the named field, never as an Assert_failure. *)
let expect_invalid_field field = function
  | Error (Robust.Error.Invalid_input { field = f; _ }) ->
    Alcotest.(check string) "invalid field" field f
  | Error e -> Alcotest.failf "expected Invalid_input %s, got %s" field (Robust.Error.to_string e)
  | Ok lambda -> Alcotest.failf "expected Invalid_input %s, got lambda %g" field lambda

let test_lambda_kfold_one () =
  let problem = make_problem (Lazy.force clean_data) in
  expect_invalid_field "k" (Deconv.Lambda.select_result problem ~method_:(`Kfold 1) ())

let test_lambda_kfold_too_many () =
  let problem = make_problem (Lazy.force clean_data) in
  expect_invalid_field "k" (Deconv.Lambda.select_result problem ~method_:(`Kfold 50) ())

let test_lambda_empty_grid () =
  let problem = make_problem (Lazy.force clean_data) in
  List.iter
    (fun method_ ->
      expect_invalid_field "lambdas"
        (Deconv.Lambda.select_result problem ~method_ ~lambdas:[||] ()))
    [ `Gcv; `Lcurve; `Kfold 3 ]

let test_lambda_lcurve_two_points () =
  let problem = make_problem (Lazy.force clean_data) in
  expect_invalid_field "lambdas"
    (Deconv.Lambda.select_result problem ~method_:`Lcurve ~lambdas:[| 1e-4; 1e-2 |] ())

let test_lambda_result_matches_select () =
  let problem = make_problem (Lazy.force clean_data) in
  let a = Deconv.Lambda.select problem ~method_:`Gcv () in
  let b = expect_ok (Deconv.Lambda.select_result problem ~method_:`Gcv ()) in
  check_close ~tol:0.0 "select and select_result agree" a b

(* ---------------- CSV error satellite ---------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let with_temp_csv contents f =
  let path = Filename.temp_file "robust_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path contents;
      f path)

let test_csv_reports_line_and_column () =
  with_temp_csv "minutes,g\n0,1.5\n15,oops\n30,2.5\n" (fun path ->
      match Dataio.Csv.read_columns_result ~path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error e ->
        Alcotest.(check int) "line of the bad field" 3 e.Dataio.Csv.line;
        Alcotest.(check int) "column of the bad field" 2 e.Dataio.Csv.column;
        check_true "message mentions the token"
          (String.length (Dataio.Csv.error_to_string e) > 0))

let test_csv_ragged_row () =
  with_temp_csv "minutes,g\n0,1.5\n15,2.0,extra\n" (fun path ->
      match Dataio.Csv.read_columns_result ~path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error e ->
        Alcotest.(check int) "ragged line" 3 e.Dataio.Csv.line;
        Alcotest.(check int) "column past the expected width" 3 e.Dataio.Csv.column)

let expect_csv_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected CSV error: %s" (Dataio.Csv.error_to_string e)

let test_datasets_load_measurements () =
  with_temp_csv "minutes,g,sigma\n30,3.0,0.3\n0,1.0,0.1\n15,2.0,0.2\n" (fun path ->
      let t, g, s = expect_csv_ok (Dataio.Datasets.load_measurements ~path) in
      check_vec ~tol:0.0 "sorted by time" [| 0.0; 15.0; 30.0 |] t;
      check_vec ~tol:0.0 "g reordered with times" [| 1.0; 2.0; 3.0 |] g;
      check_vec ~tol:0.0 "sigma reordered with times" [| 0.1; 0.2; 0.3 |]
        (Option.value s ~default:[||]))

let test_datasets_wrong_columns () =
  with_temp_csv "a\n1\n2\n" (fun path ->
      match Dataio.Datasets.load_measurements ~path with
      | Ok _ -> Alcotest.fail "expected an error for a 1-column file"
      | Error _ -> ())

let tests =
  [
    ( "robust-errors",
      [
        case "to_string total" test_error_strings;
        case "equal and same_class" test_error_classes;
        case "validate times" test_validate_times;
        case "validate sigmas" test_validate_sigmas;
        case "usable sigma" test_usable_sigma;
        case "of_exn" test_error_of_exn;
        case "validate clean kernel" test_validate_kernel_clean;
        case "validate faulty kernels" test_validate_kernel_faults;
        case "problem validate" test_problem_validate;
      ] );
    ( "robust-faults",
      [
        case "injectors are pure" test_faults_pure;
        case "nan and inf injection" test_fault_nan_inf;
        case "shuffle permutes" test_fault_shuffle;
        case "spike scales with data" test_fault_spike;
        case "compose" test_fault_compose;
        case "duplicate time point" test_fault_duplicate_time;
        case "choose rows" test_choose_rows;
        case "poison sigma rows" test_poison_sigma_rows;
        case "crash after" test_crash_after;
      ] );
    ( "robust-solver",
      [
        case "clean path matches solve" test_clean_matches_solve;
        prop_clean_equals_solve;
        case "singular system preconditioned" test_singular_system_preconditioned;
        case "condition limit preconditions" test_condition_limit_preconditions;
        case "nan measurement repaired" test_nan_measurement_repaired;
        case "zero sigma repaired" test_zero_sigma_repaired;
        case "repair_problem: clean input is returned as is" test_repair_problem_clean_is_identity;
        case "repair_problem: masks and replaces" test_repair_problem_masks_and_replaces;
        case "repair disabled -> typed error" test_repair_disabled_reports_error;
        case "degenerate kernel -> typed error" test_degenerate_kernel_is_terminal;
        case "stall -> typed Qp_stalled" test_stall_is_typed_error;
        case "duplicated time point survives" test_duplicate_time_kernel_recovered;
        case "report rendering" test_report_to_string;
        case "qp stall status" test_qp_stall_status;
        case "overflowing weight rejected" test_overflowing_weight_rejected;
        case "overflowing weight repaired" test_overflowing_weight_repaired;
        case "huge weights solve exactly" test_solve_huge_weights;
        case "batch validation matches Problem.validate" test_batch_validation_matches_problem;
        case "validate_data skips kernel and basis" test_validate_data_skips_kernel;
      ] );
    ( "robust-one-attempt",
      List.map
        (fun (fault, input) -> case ("sweep: " ^ fault) (test_one_attempt_sweep fault input))
        sweep_inputs );
    ( "robust-pipeline",
      [
        case "nan-poisoned run completes" test_pipeline_nan_poisoned_completes;
        case "clean run reports degradation 0" test_pipeline_clean_reports_degradation_zero;
      ] );
    ( "robust-lambda",
      [
        case "skips non-finite candidates" test_lambda_skips_non_finite_candidates;
        case "all non-finite -> typed error" test_lambda_all_non_finite;
        case "select_result agrees with select" test_lambda_result_matches_select;
        case "k = 1 -> Invalid_input k" test_lambda_kfold_one;
        case "k above n -> Invalid_input k" test_lambda_kfold_too_many;
        case "empty grid -> Invalid_input lambdas" test_lambda_empty_grid;
        case "2-point L-curve -> Invalid_input lambdas" test_lambda_lcurve_two_points;
      ] );
    ( "robust-csv",
      [
        case "line and column reported" test_csv_reports_line_and_column;
        case "ragged row located" test_csv_ragged_row;
        case "load_measurements sorts" test_datasets_load_measurements;
        case "wrong column count" test_datasets_wrong_columns;
      ] );
  ]
