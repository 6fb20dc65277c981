(* Tests for the lib/parallel domain pool: chunk-schedule mechanics,
   exception propagation, and — the load-bearing property — bit-for-bit
   equality of every parallelized pipeline stage across jobs settings.
   Concurrency is exercised exclusively through the pool API: raw
   Domain.spawn / Mutex are off limits here too (rule R8). *)

open Numerics
open Testutil

(* --- pool mechanics --- *)

let test_empty_range () =
  let pool = Parallel.Pool.create ~domains:2 in
  let called = ref false in
  Parallel.Pool.parallel_for pool ~n:0 (fun ~lo:_ ~hi:_ -> called := true);
  check_true "body never called for n = 0" (not !called);
  Parallel.Pool.parallel_for pool ~n:(-3) (fun ~lo:_ ~hi:_ -> called := true);
  check_true "body never called for n < 0" (not !called);
  Alcotest.(check int) "empty map" 0 (Array.length (Parallel.Pool.parallel_map pool ~n:0 succ));
  Parallel.Pool.shutdown pool

let test_chunk_larger_than_n () =
  (* One chunk covers the whole range and runs inline in the submitting
     domain, so plain refs are safe to write. *)
  let pool = Parallel.Pool.create ~domains:4 in
  let calls = ref [] in
  Parallel.Pool.parallel_for pool ~chunk:100 ~n:7 (fun ~lo ~hi -> calls := (lo, hi) :: !calls);
  Alcotest.(check (list (pair int int))) "single chunk [0, 7)" [ (0, 7) ] !calls;
  Parallel.Pool.shutdown pool

let test_coverage_exactly_once () =
  let n = 997 in
  let pool = Parallel.Pool.create ~domains:3 in
  let counts = Array.make n 0 in
  (* Chunks own disjoint index ranges, so these writes never race. *)
  Parallel.Pool.parallel_for pool ~chunk:10 ~n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        counts.(i) <- counts.(i) + 1
      done);
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c)
    counts;
  Parallel.Pool.shutdown pool

let test_map_preserves_order () =
  let pool = Parallel.Pool.create ~domains:4 in
  let got = Parallel.Pool.parallel_map pool ~chunk:3 ~n:100 (fun i -> i * i) in
  Alcotest.(check (array int)) "f i lands in slot i" (Array.init 100 (fun i -> i * i)) got;
  Parallel.Pool.shutdown pool

let test_nested_parallel_for () =
  (* A submission from inside a running job finds the pool busy and falls
     back to inline execution: same schedule, no deadlock. *)
  let pool = Parallel.Pool.create ~domains:2 in
  let got =
    Parallel.Pool.parallel_map pool ~chunk:1 ~n:8 (fun i ->
        Array.to_list (Parallel.Pool.parallel_map pool ~chunk:1 ~n:4 (fun j -> (10 * i) + j)))
  in
  let expected = Array.init 8 (fun i -> List.init 4 (fun j -> (10 * i) + j)) in
  Alcotest.(check (array (list int))) "nested map results" expected got;
  Parallel.Pool.shutdown pool

let test_exception_propagation () =
  let pool = Parallel.Pool.create ~domains:2 in
  Alcotest.check_raises "chunk exception reaches the submitter" (Failure "boom") (fun () ->
      Parallel.Pool.parallel_for pool ~chunk:1 ~n:64 (fun ~lo ~hi:_ ->
          if lo = 37 then failwith "boom"));
  (* The pool stays healthy: the next job runs to completion. *)
  let got = Parallel.Pool.parallel_map pool ~chunk:1 ~n:32 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool reusable after a failed job"
    (Array.init 32 (fun i -> i + 1))
    got;
  Parallel.Pool.shutdown pool

let test_single_domain_pool_inline () =
  let pool = Parallel.Pool.create ~domains:1 in
  Alcotest.(check int) "domains" 1 (Parallel.Pool.domains pool);
  let counts = Array.make 50 0 in
  Parallel.Pool.parallel_for pool ~chunk:7 ~n:50 (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        counts.(i) <- counts.(i) + 1
      done);
  Array.iteri (fun i c -> if c <> 1 then Alcotest.failf "index %d visited %d times" i c) counts;
  Parallel.Pool.shutdown pool;
  (* Jobs after shutdown run inline rather than hanging. *)
  let got = Parallel.Pool.parallel_map pool ~n:4 (fun i -> -i) in
  Alcotest.(check (array int)) "post-shutdown inline" [| 0; -1; -2; -3 |] got

let test_jobs_override () =
  Parallel.set_jobs 3;
  Alcotest.(check int) "set_jobs wins" 3 (Parallel.jobs ());
  Alcotest.(check int) "default pool resized" 3 (Parallel.Pool.domains (Parallel.default ()));
  Parallel.set_jobs 1;
  Alcotest.(check int) "back to one" 1 (Parallel.Pool.domains (Parallel.default ()));
  Alcotest.check_raises "set_jobs rejects 0"
    (Invalid_argument "Parallel.set_jobs: jobs must be >= 1") (fun () -> Parallel.set_jobs 0)

(* --- bitwise determinism across jobs settings --- *)

let bits = Int64.bits_of_float

let check_bitwise_vec msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits actual.(i))) then
        Alcotest.failf "%s: element %d differs bitwise: %h vs %h" msg i x actual.(i))
    expected

let check_bitwise_mat msg expected actual =
  Alcotest.(check (pair int int)) (msg ^ ": dims") (Mat.dims expected) (Mat.dims actual);
  for i = 0 to expected.Mat.rows - 1 do
    check_bitwise_vec (Printf.sprintf "%s: row %d" msg i) (Mat.row expected i) (Mat.row actual i)
  done

let check_bitwise_float msg expected actual =
  if not (Int64.equal (bits expected) (bits actual)) then
    Alcotest.failf "%s: %h vs %h" msg expected actual

(* Run [f] under an explicit default-pool size, restoring --jobs 1 (the
   sequential schedule) afterwards so suite order never matters. *)
let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

let params = Cellpop.Params.paper_2011
let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0; 180.0 |]

let test_kernel_estimate_jobs_independent () =
  (* n_cells = 10^4 spans ~40 founder chunks: enough for a real fan-out at
     every jobs setting tested. *)
  let estimate () =
    Cellpop.Kernel.estimate params ~rng:(Rng.create 777) ~n_cells:10_000 ~times ~n_phi:101
  in
  let reference = with_jobs 1 estimate in
  List.iter
    (fun jobs ->
      let k = with_jobs jobs estimate in
      let tag fmt = Printf.sprintf fmt jobs in
      check_bitwise_mat (tag "q at jobs=%d") reference.Cellpop.Kernel.q k.Cellpop.Kernel.q;
      check_bitwise_mat (tag "q_tilde at jobs=%d") reference.Cellpop.Kernel.q_tilde
        k.Cellpop.Kernel.q_tilde;
      check_bitwise_vec (tag "phases at jobs=%d") reference.Cellpop.Kernel.phases
        k.Cellpop.Kernel.phases)
    [ 2; 4 ]

let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:10

(* A shared deconvolution problem for the λ-selection and bootstrap
   determinism tests (built once; kernel kept small for speed). *)
let problem_and_estimate =
  lazy
    (let kernel =
       Cellpop.Kernel.estimate params ~rng:(Rng.create 778) ~n_cells:2000 ~times ~n_phi:101
     in
     let profile = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 () in
     let clean = Deconv.Forward.apply_fn kernel profile in
     let noisy, sigmas =
       Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.08) (Rng.create 779) clean
     in
     let problem = Deconv.Problem.create ~sigmas ~kernel ~basis ~measurements:noisy ~params () in
     let estimate = Deconv.Solver.solve ~lambda:1e-3 problem in
     (problem, estimate))

let test_lambda_select_jobs_independent () =
  let problem, _ = Lazy.force problem_and_estimate in
  List.iter
    (fun (name, method_, seed) ->
      let select jobs =
        with_jobs jobs (fun () ->
            let rng = Option.map Rng.create seed in
            Deconv.Lambda.select problem ~method_ ?rng ())
      in
      let reference = select 1 in
      List.iter
        (fun jobs ->
          check_bitwise_float
            (Printf.sprintf "%s: jobs=1 vs jobs=%d" name jobs)
            reference (select jobs))
        [ 2; 4 ])
    [ ("gcv", `Gcv, None); ("lcurve", `Lcurve, None); ("kfold", `Kfold 5, Some 808) ]

let test_bootstrap_jobs_independent () =
  let problem, estimate = Lazy.force problem_and_estimate in
  let run jobs =
    with_jobs jobs (fun () ->
        Deconv.Bootstrap.residual ~replicates:40 ~level:0.9 problem estimate
          ~rng:(Rng.create 909))
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      let b = run jobs in
      let tag fmt = Printf.sprintf fmt jobs in
      check_bitwise_vec (tag "lower at jobs=%d") reference.Deconv.Bootstrap.lower
        b.Deconv.Bootstrap.lower;
      check_bitwise_vec (tag "median at jobs=%d") reference.Deconv.Bootstrap.median
        b.Deconv.Bootstrap.median;
      check_bitwise_vec (tag "upper at jobs=%d") reference.Deconv.Bootstrap.upper
        b.Deconv.Bootstrap.upper;
      check_bitwise_mat (tag "replicates at jobs=%d") reference.Deconv.Bootstrap.replicates
        b.Deconv.Bootstrap.replicates)
    [ 2; 4 ]

let test_batch_jobs_independent () =
  let problem, _ = Lazy.force problem_and_estimate in
  let kernel = problem.Deconv.Problem.kernel in
  let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
  let profiles =
    [|
      Biomodels.Gene_profile.gaussian_pulse ~center:0.25 ~width:0.1 ~height:3.0 ();
      Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ();
      Biomodels.Gene_profile.gaussian_pulse ~center:0.75 ~width:0.1 ~height:2.0 ();
    |]
  in
  let measurements =
    Mat.of_rows (Array.map (fun p -> Deconv.Forward.apply_fn kernel p) profiles)
  in
  let run jobs =
    with_jobs jobs (fun () -> Deconv.Batch.solve_all batch ~lambda:`Gcv ~measurements ())
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      let estimates = run jobs in
      Array.iteri
        (fun g (e : Deconv.Solver.estimate) ->
          check_bitwise_float
            (Printf.sprintf "gene %d lambda at jobs=%d" g jobs)
            e.Deconv.Solver.lambda reference.(g).Deconv.Solver.lambda;
          check_bitwise_vec
            (Printf.sprintf "gene %d profile at jobs=%d" g jobs)
            reference.(g).Deconv.Solver.profile e.Deconv.Solver.profile)
        estimates)
    [ 2; 4 ]

(* Work counters make a lost hoist, a lost cache hit or a changed QP
   path visible on any machine, with no timing noise. Problem.create is
   the only place the constraint blocks (Simpson integrals of every basis
   function, Ψ on the phase grid) are built, and it counts each build in
   [constraints.builds]: a batch builds once in [Batch.prepare],
   bootstrap replicates re-point their problem and build nothing.
   [counters f] runs [f] on a fresh, enabled registry and returns a
   reader for the counters it left (0 for one never incremented). *)
let counters f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      f ();
      let snapshot = Obs.Metrics.snapshot () in
      fun name ->
        List.fold_left
          (fun acc (m : Obs.Metrics.snapshot) ->
            if String.equal m.Obs.Metrics.name name then
              Option.value ~default:acc (List.assoc_opt "value" m.Obs.Metrics.fields)
            else acc)
          0.0 snapshot)

let test_constraint_blocks_built_once () =
  let problem, estimate = Lazy.force problem_and_estimate in
  let kernel = problem.Deconv.Problem.kernel in
  let measurements =
    Mat.of_rows
      (Array.init 32 (fun g ->
           let center = 0.1 +. (0.8 *. float_of_int g /. 31.0) in
           Deconv.Forward.apply_fn kernel
             (Biomodels.Gene_profile.gaussian_pulse ~center ~width:0.1 ~height:3.0 ())))
  in
  (* Each pinned count is the value read when its pin was added; a change
     that moves one must explain why. *)
  List.iter
    (fun jobs ->
      let count =
        counters (fun () ->
            with_jobs jobs (fun () ->
                let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
                let outcome =
                  Deconv.Batch.solve_all_result batch ~lambda:`Gcv ~measurements ()
                in
                Alcotest.(check int)
                  (Printf.sprintf "32 genes solve at jobs=%d" jobs)
                  32
                  (Deconv.Batch.Outcome.ok_count outcome)))
      in
      let pin name expected =
        check_bitwise_float (Printf.sprintf "batch %s at jobs=%d" name jobs) expected (count name)
      in
      pin "constraints.builds" 1.0;
      pin "qp.solves" 32.0;
      pin "qp.iterations" 418.0;
      (* Each gene looks the shared factorization up twice (λ selection,
         then the solve). Until the first insert lands, every domain's
         first lookup can miss and factor, so the misses (= factorizations)
         are exactly 1 at jobs=1 and between 1 and [jobs] above it. *)
      let misses = count "spectral.cache_misses" in
      check_true
        (Printf.sprintf "1 <= cache misses <= %d at jobs=%d" jobs jobs)
        (misses >= 1.0 && misses <= float_of_int jobs);
      pin "spectral.factorizations" misses;
      pin "spectral.cache_hits" (64.0 -. misses))
    [ 1; 2 ];
  let count =
    counters (fun () ->
        with_jobs 2 (fun () ->
            let outcome =
              Deconv.Bootstrap.residual_result ~replicates:50 problem estimate
                ~rng:(Rng.create 910)
            in
            Alcotest.(check int) "no replicate fails" 0
              (List.length outcome.Deconv.Bootstrap.failures)))
  in
  let pin name expected =
    check_bitwise_float (Printf.sprintf "bootstrap %s" name) expected (count name)
  in
  pin "constraints.builds" 0.0;
  pin "qp.solves" 50.0;
  pin "qp.iterations" 371.0

(* Regression for the k-fold seed derivation: fold assignment now comes
   from an [Rng.split] substream, so repeated selections with equal-seeded
   generators agree exactly, candidate order notwithstanding. *)
let test_kfold_fold_seed_determinism () =
  let problem, _ = Lazy.force problem_and_estimate in
  let select () = Deconv.Lambda.select problem ~method_:(`Kfold 5) ~rng:(Rng.create 4242) () in
  let a = select () in
  let b = select () in
  check_bitwise_float "repeat kfold selection" a b;
  check_true "selected lambda usable" (Float.is_finite a && a >= 0.0)

let tests =
  [
    ( "parallel-pool",
      [
        case "empty range" test_empty_range;
        case "chunk larger than n" test_chunk_larger_than_n;
        case "coverage exactly once" test_coverage_exactly_once;
        case "map preserves order" test_map_preserves_order;
        case "nested parallel_for runs inline" test_nested_parallel_for;
        case "exception propagation restores pool health" test_exception_propagation;
        case "single-domain pool inline" test_single_domain_pool_inline;
        case "jobs override" test_jobs_override;
      ] );
    ( "parallel-determinism",
      [
        case "kernel estimate bitwise across jobs" test_kernel_estimate_jobs_independent;
        case "lambda select bitwise across jobs" test_lambda_select_jobs_independent;
        case "bootstrap bands bitwise across jobs" test_bootstrap_jobs_independent;
        case "batch solves bitwise across jobs" test_batch_jobs_independent;
        case "constraint blocks built once per problem" test_constraint_blocks_built_once;
        case "kfold fold-seed determinism" test_kfold_fold_seed_determinism;
      ] );
  ]
