(* Tests for the survivability layer of the genome-scale batch: per-index
   fault isolation in the pool, solve budgets, the crash-safe checkpoint
   journal, the fault injectors' totality, and the fault-isolated batch /
   bootstrap entry points. The full 200-gene chaos scenario lives in
   test_chaos.ml (alias @runtest-chaos). *)

open Numerics
open Testutil

(* Restore --jobs 1 afterwards so suite order never matters. *)
let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

(* --- parallel_map_result: per-index isolation --- *)

let test_map_result_isolation () =
  let pool = Parallel.Pool.create ~domains:3 in
  let got =
    Parallel.Pool.parallel_map_result pool ~chunk:1 ~n:64 (fun i ->
        if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i * i)
  in
  Alcotest.(check int) "every index has a slot" 64 (Array.length got);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v when i mod 7 <> 3 -> Alcotest.(check int) "clean slot" (i * i) v
      | Error (Failure msg) when i mod 7 = 3 ->
        Alcotest.(check string) "failure lands in its own slot"
          (Printf.sprintf "boom %d" i) msg
      | Ok _ -> Alcotest.failf "index %d should have failed" i
      | Error e -> Alcotest.failf "index %d: unexpected %s" i (Printexc.to_string e))
    got;
  (* The pool stays healthy for plain jobs afterwards. *)
  let next = Parallel.Pool.parallel_map pool ~n:8 succ in
  Alcotest.(check (array int)) "pool reusable" (Array.init 8 succ) next;
  Parallel.Pool.shutdown pool

let test_map_result_all_attempted () =
  (* Unlike parallel_map, a failure cancels nothing: every index runs. *)
  let pool = Parallel.Pool.create ~domains:2 in
  let n = 128 in
  let attempted = Array.make n false in
  let (_ : (unit, exn) result array) =
    Parallel.Pool.parallel_map_result pool ~chunk:1 ~n (fun i ->
        attempted.(i) <- true;
        if i = 0 then failwith "first chunk fails immediately")
  in
  Array.iteri
    (fun i a -> if not a then Alcotest.failf "index %d never attempted" i)
    attempted;
  Parallel.Pool.shutdown pool

let test_map_result_matches_map_on_success () =
  let pool = Parallel.Pool.create ~domains:4 in
  let plain = Parallel.Pool.parallel_map pool ~chunk:5 ~n:41 (fun i -> 3 * i) in
  let isolated = Parallel.Pool.parallel_map_result pool ~chunk:5 ~n:41 (fun i -> 3 * i) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "same value as parallel_map" plain.(i) v
      | Error e -> Alcotest.failf "index %d failed: %s" i (Printexc.to_string e))
    isolated;
  Parallel.Pool.shutdown pool

(* --- set_jobs while work is in flight (regression: the pool used to be
   resized under a running job, tearing down workers that still held
   unclaimed chunks) --- *)

let test_set_jobs_in_flight_rejected () =
  with_jobs 2 (fun () ->
      let observed = ref None in
      let (_ : int array) =
        Parallel.parallel_map ~chunk:1 ~n:8 (fun i ->
            (if i = 0 then
               match Parallel.set_jobs 4 with
               | () -> observed := Some `Allowed
               | exception Invalid_argument msg -> observed := Some (`Rejected msg));
            i)
      in
      match !observed with
      | Some (`Rejected msg) ->
        Alcotest.(check string) "error names the contract"
          "Parallel.set_jobs: parallel work is in flight" msg
      | Some `Allowed -> Alcotest.fail "set_jobs succeeded mid-job"
      | None -> Alcotest.fail "index 0 never ran");
  (* Outside a job the resize is legal again. *)
  Parallel.set_jobs 1

(* --- Fault.shuffle totality (lengths < 2 used to raise) --- *)

let check_bitwise msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %h vs %h" msg a b

let test_shuffle_total_small () =
  let rng = Rng.create 5 in
  let empty = Robust.Fault.apply Faults.shuffle rng [||] in
  Alcotest.(check int) "length 0 unchanged" 0 (Array.length empty);
  let one = Robust.Fault.apply Faults.shuffle rng [| 42.0 |] in
  check_bitwise "singleton unchanged" 42.0 one.(0)

let shuffle_prop =
  (* Over lengths 0-3: total, a permutation, and a *different* order
     whenever one exists (length >= 2 with distinct entries). *)
  qcheck ~count:500 "shuffle is total and permutes (lengths 0-3)"
    QCheck2.Gen.(pair (int_range 0 3) int)
    (fun (n, seed) ->
      let v = Array.init n (fun i -> float_of_int (i + 1)) in
      let s = Robust.Fault.apply Faults.shuffle (Rng.create seed) v in
      Array.length s = n
      && List.sort compare (Array.to_list (Array.map int_of_float s))
         = List.init n (fun i -> i + 1)
      && (n < 2 || s <> v))

(* --- budgets --- *)

let test_budget_iteration_cap () =
  let b = Robust.Budget.create ~max_iterations:3 () in
  (* three ticks allowed *)
  Robust.Budget.on_iteration b 0;
  Robust.Budget.on_iteration b 0;
  Robust.Budget.on_iteration b 0;
  (match Robust.Budget.on_iteration b 0 with
  | () -> Alcotest.fail "fourth tick should exhaust the budget"
  | exception Robust.Error.Error (Robust.Error.Budget_exhausted { resource; limit; spent }) ->
    Alcotest.(check string) "resource" "iterations" resource;
    check_close "limit" 3.0 limit;
    check_close "spent" 4.0 spent
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
  (* unlimited never fires *)
  let u = Robust.Budget.unlimited () in
  for _ = 1 to 10_000 do
    Robust.Budget.on_iteration u 0
  done

let test_budget_rejects_bad_caps () =
  let expect_invalid label f =
    match f () with
    | (_ : Robust.Budget.t) -> Alcotest.failf "%s accepted" label
    | exception Robust.Error.Error (Robust.Error.Invalid_input _) -> ()
  in
  expect_invalid "max_iterations 0" (fun () -> Robust.Budget.create ~max_iterations:0 ());
  expect_invalid "negative seconds" (fun () -> Robust.Budget.create ~max_seconds:(-1.0) ());
  expect_invalid "nan seconds" (fun () -> Robust.Budget.create ~max_seconds:Float.nan ())

(* --- shared small batch fixture --- *)

let params = Cellpop.Params.paper_2011
let times = Array.init 7 (fun i -> 25.0 *. float_of_int i)
let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:8

let fixture =
  lazy
    (let kernel =
       Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1203) ~n_cells:300
         ~times ~n_phi:31
     in
     let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
     let rng = Rng.create 1204 in
     let measurements =
       Mat.of_rows
         (Array.init 12 (fun _ ->
              let center = Rng.uniform rng ~lo:0.2 ~hi:0.8 in
              let profile =
                Biomodels.Gene_profile.gaussian_pulse ~center ~width:0.12 ~height:3.0 ()
              in
              Deconv.Forward.apply_fn kernel profile))
     in
     (batch, measurements))

let corrupt rows m =
  Robust.Fault.apply
    (Robust.Fault.corrupt_rows ~rows (Robust.Fault.nan_at ()))
    (Rng.create 7) m

(* --- Batch.solve_all_result --- *)

let test_batch_outcome_counts () =
  let batch, clean = Lazy.force fixture in
  let faulty = [| 2; 9 |] in
  let outcome =
    Deconv.Batch.solve_all_result batch ~lambda:`Gcv ~measurements:(corrupt faulty clean) ()
  in
  let open Deconv.Batch in
  Alcotest.(check int) "total" 12 (Outcome.total outcome);
  Alcotest.(check int) "ok" 10 (Outcome.ok_count outcome);
  Alcotest.(check int) "failed" 2 (Outcome.failed_count outcome);
  check_true "not fully ok" (not (Outcome.fully_ok outcome));
  Alcotest.(check (list int)) "exactly the injected genes fail, ascending"
    (Array.to_list faulty)
    (List.map fst (Outcome.failures outcome));
  List.iter
    (fun (_, e) ->
      check_true "typed as non-finite input"
        (same_class e (Robust.Error.Non_finite { stage = "" })))
    (Outcome.failures outcome);
  Alcotest.(check (list (pair string int)))
    "class counts" [ ("non_finite", 2) ] (Outcome.class_counts outcome);
  (match Deconv.Batch.solve_all batch ~lambda:`Gcv ~measurements:(corrupt faulty clean) () with
  | (_ : Deconv.Solver.estimate array) -> Alcotest.fail "estimates should raise"
  | exception Robust.Error.Error e -> (
    match Outcome.failures outcome with
    | (_, first) :: _ ->
      check_true "estimates raises the lowest-index failure" (Robust.Error.equal e first)
    | [] -> Alcotest.fail "no failures recorded"));
  (* And the strict wrapper agrees with the isolated one on clean data. *)
  let strict = Deconv.Batch.solve_all batch ~lambda:`Gcv ~measurements:clean () in
  let isolated =
    Deconv.Batch.solve_all_result batch ~lambda:`Gcv ~measurements:clean ()
  in
  check_true "clean batch fully ok" (Outcome.fully_ok isolated);
  Array.iteri
    (fun g (e : Deconv.Solver.estimate) ->
      match isolated.Outcome.outcomes.(g) with
      | Ok e' ->
        if
          not
            (Int64.equal
               (Int64.bits_of_float e.Deconv.Solver.cost)
               (Int64.bits_of_float e'.Deconv.Solver.cost))
        then Alcotest.failf "gene %d: strict and isolated costs differ bitwise" g
      | Error err -> Alcotest.failf "gene %d failed: %s" g (Robust.Error.to_string err))
    strict

(* At λ = 1e-5 every gene's QP needs 3 to 8 passes, so a two-pass cap
   stops each of them. *)
let test_batch_budget_exhaustion () =
  let batch, clean = Lazy.force fixture in
  let outcome =
    Deconv.Batch.solve_all_result batch ~lambda:(`Fixed 1e-5) ~max_iterations:2
      ~measurements:clean ()
  in
  let open Deconv.Batch in
  Alcotest.(check int) "every gene hits the cap" 12 (Outcome.failed_count outcome);
  List.iter
    (fun (_, e) ->
      check_true "typed budget_exhausted"
        (String.equal (Robust.Error.class_name e) "budget_exhausted"))
    (Outcome.failures outcome)

(* Under a trace sink each solved gene's quality record (κ, edf and the
   residual tests) is computed inside one quality.emit span, so its time
   is attributed; failed genes emit no record and get no span. *)
let test_batch_quality_span_per_solved_gene () =
  let batch, clean = Lazy.force fixture in
  Obs.Span.reset ();
  let sink, recorded = Obs.Export.memory () in
  Obs.Export.install sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Export.uninstall ();
      Obs.Span.reset ())
    (fun () ->
      let outcome =
        Deconv.Batch.solve_all_result batch ~lambda:`Gcv
          ~measurements:(corrupt [| 2; 9 |] clean) ()
      in
      Alcotest.(check int) "solved genes" 10 (Deconv.Batch.Outcome.ok_count outcome);
      let count name =
        List.length
          (List.filter
             (function
               | Obs.Export.Span s -> String.equal s.Obs.Export.name name
               | _ -> false)
             (recorded ()))
      in
      Alcotest.(check int) "one quality.emit span per solved gene" 10 (count "quality.emit"))

(* A σ matrix whose shape differs from the measurements' is a typed
   input error raised before any gene runs, with or without a journal:
   both the journal keys and the per-gene problems would otherwise read
   σ rows that do not exist. *)
let test_batch_rejects_misshaped_sigmas () =
  let batch, clean = Lazy.force fixture in
  let genes, n_m = Mat.dims clean in
  let path = Filename.temp_file "deconv-test-sigmas" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (label, sigmas) ->
          List.iter
            (fun (mode, journal) ->
              match
                Deconv.Batch.solve_all_result batch ~sigmas ?journal ~measurements:clean ()
              with
              | (_ : Deconv.Batch.Outcome.t) -> Alcotest.failf "%s, %s: accepted" label mode
              | exception Robust.Error.Error (Robust.Error.Invalid_input { field; _ }) ->
                Alcotest.(check string) (label ^ ", " ^ mode ^ ": field") "sigmas" field)
            [ ("no journal", None); ("journal", Some (Deconv.Checkpoint.create ~path)) ])
        [
          ("too few rows", Mat.init 2 n_m (fun _ _ -> 0.5));
          ("too few columns", Mat.init genes (n_m - 1) (fun _ _ -> 0.5));
        ];
      match Deconv.Checkpoint.load ~path with
      | Ok [] -> ()
      | Ok es -> Alcotest.failf "a rejected call journaled %d entries" (List.length es)
      | Error msg -> Alcotest.failf "reload failed: %s" msg)

(* --- checkpoint journal --- *)

let sample_estimate () =
  let batch, clean = Lazy.force fixture in
  match
    Deconv.Batch.solve_gene_result batch ~lambda:`Gcv ~measurements:(Mat.row clean 0) ()
  with
  | Ok e -> e
  | Error e -> Alcotest.failf "fixture gene failed: %s" (Robust.Error.to_string e)

let roundtrip entry =
  match Deconv.Checkpoint.entry_of_line (Deconv.Checkpoint.entry_json entry) with
  | Ok e -> e
  | Error msg -> Alcotest.failf "entry did not round-trip: %s" msg

let test_checkpoint_entry_roundtrip () =
  let est = sample_estimate () in
  let entry = { Deconv.Checkpoint.gene = 3; key = "00deadbeef00cafe"; outcome = Ok est } in
  let back = roundtrip entry in
  Alcotest.(check int) "gene" 3 back.Deconv.Checkpoint.gene;
  Alcotest.(check string) "key" "00deadbeef00cafe" back.Deconv.Checkpoint.key;
  (match back.Deconv.Checkpoint.outcome with
  | Error _ -> Alcotest.fail "outcome flipped to Error"
  | Ok e ->
    (* Hex-float serialization: bit-for-bit, not just approximately. *)
    Array.iteri
      (fun i x ->
        if
          not
            (Int64.equal (Int64.bits_of_float x)
               (Int64.bits_of_float e.Deconv.Solver.alpha.(i)))
        then Alcotest.failf "alpha.(%d) not bit-exact" i)
      est.Deconv.Solver.alpha;
    if
      not
        (Int64.equal
           (Int64.bits_of_float est.Deconv.Solver.lambda)
           (Int64.bits_of_float e.Deconv.Solver.lambda))
    then Alcotest.fail "lambda not bit-exact");
  (* Every error class survives the trip too. *)
  List.iter
    (fun err ->
      let e = { Deconv.Checkpoint.gene = 0; key = "0123456789abcdef"; outcome = Error err } in
      match (roundtrip e).Deconv.Checkpoint.outcome with
      | Ok _ -> Alcotest.fail "error flipped to Ok"
      | Error back ->
        check_true
          (Printf.sprintf "%s round-trips" (Robust.Error.class_name err))
          (Robust.Error.equal err back))
    [
      Robust.Error.Ill_conditioned { cond = 1e17 };
      Robust.Error.Qp_stalled { iterations = 99 };
      Robust.Error.Non_finite { stage = "measurements" };
      Robust.Error.Invalid_input { field = "sigmas"; why = "sigma must be > 0" };
      Robust.Error.Kernel_degenerate;
      Robust.Error.Budget_exhausted
        { resource = "iterations"; limit = 40.0; spent = 41.0 };
      Robust.Error.Unexpected { description = "Failure(\"boom\")" };
    ]

let test_checkpoint_file_lifecycle () =
  let path = Filename.temp_file "deconv-test-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let est = sample_estimate () in
      let j = Deconv.Checkpoint.create ~path in
      Deconv.Checkpoint.append j
        [ { Deconv.Checkpoint.gene = 0; key = "k0"; outcome = Ok est } ];
      Deconv.Checkpoint.append j
        [
          {
            Deconv.Checkpoint.gene = 1;
            key = "k1";
            outcome = Error Robust.Error.Kernel_degenerate;
          };
        ];
      (match Deconv.Checkpoint.load ~path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok entries ->
        Alcotest.(check int) "two entries on disk" 2 (List.length entries);
        check_true "find hits on matching key"
          (Option.is_some (Deconv.Checkpoint.find entries ~gene:0 ~key:"k0"));
        check_true "find misses on a stale key"
          (Option.is_none (Deconv.Checkpoint.find entries ~gene:0 ~key:"other")));
      (* create truncates: a fresh journal never leaks old entries. *)
      let (_ : Deconv.Checkpoint.t) = Deconv.Checkpoint.create ~path in
      match Deconv.Checkpoint.load ~path with
      | Ok [] -> ()
      | Ok es -> Alcotest.failf "stale journal leaked %d entries" (List.length es)
      | Error msg -> Alcotest.failf "reload failed: %s" msg)

(* Keys captured before the template part of the key was hashed once in
   Batch.prepare: a journal written by the earlier code must still
   resume, so the bytes fed to the hash may not change. *)
let test_gene_key_golden () =
  let times = Dataio.Datasets.lv_measurement_times in
  let kernel =
    Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1) ~n_cells:1000 ~times
      ~n_phi:101
  in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12 in
  let batch = Deconv.Batch.prepare ~kernel ~basis ~params () in
  let measurements = Vec.ones (Array.length times) in
  Alcotest.(check string) "gcv, no sigmas" "5ccc755147a8e4db"
    (Deconv.Batch.gene_key batch ~lambda:`Gcv ~measurements ());
  Alcotest.(check string) "fixed 1e-4, sigma 0.5" "bbc20def4b4e67f3"
    (Deconv.Batch.gene_key batch
       ~sigmas:(Array.make (Array.length times) 0.5)
       ~lambda:(`Fixed 1e-4) ~measurements ())

(* The key is FNV-1a 64 over length-prefixed parts: ["a"] hashes the
   bytes "1:a" from the offset basis. *)
let test_key_parts_compose () =
  let open Deconv.Checkpoint in
  let key parts = finish_key (feed_key key_seed parts) in
  Alcotest.(check string) "no parts: the FNV offset basis" "cbf29ce484222325" (key []);
  Alcotest.(check string) "one part: FNV-1a of \"1:a\"" "45540418180aba49" (key [ "a" ]);
  Alcotest.(check string) "feeding in two steps equals feeding once"
    (key [ "kernel"; "basis"; "row" ])
    (finish_key (feed_key (feed_key key_seed [ "kernel"; "basis" ]) [ "row" ]));
  check_true "part boundaries do not alias" (key [ "ab"; "c" ] <> key [ "a"; "bc" ]);
  check_true "an empty part still counts" (key [ "x" ] <> key [ "x"; "" ])

let test_key_vec_mat_parts () =
  let open Deconv.Checkpoint in
  let v = [| 0.1; -2.5; 1e-300 |] in
  Alcotest.(check (array (float 0.0))) "a vector part parses back bit-exactly" v
    (Array.of_list (List.map float_of_string (String.split_on_char ',' (vec_part v))));
  check_true "signed zeros differ" (vec_part [| 0.0 |] <> vec_part [| -0.0 |]);
  check_true "one ulp differs" (vec_part [| 1.0 |] <> vec_part [| Float.succ 1.0 |]);
  let data = Array.init 6 float_of_int in
  let wide = Mat.init 2 3 (fun i j -> data.((i * 3) + j)) in
  let tall = Mat.init 3 2 (fun i j -> data.((i * 2) + j)) in
  check_true "same entries, different shape, different part" (mat_part wide <> mat_part tall);
  Alcotest.(check string) "rows joined in order"
    (vec_part (Mat.row wide 0) ^ ";" ^ vec_part (Mat.row wide 1))
    (mat_part wide)

let test_batch_journal_replay () =
  let batch, clean = Lazy.force fixture in
  let measurements = corrupt [| 5 |] clean in
  let path = Filename.temp_file "deconv-test-replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let first =
        Deconv.Batch.solve_all_result batch ~lambda:`Gcv
          ~journal:(Deconv.Checkpoint.create ~path) ~block:4 ~measurements ()
      in
      Alcotest.(check int) "first run solves everything" 0
        first.Deconv.Batch.Outcome.replayed;
      let journal =
        match Deconv.Checkpoint.resume ~path with
        | Ok j -> j
        | Error msg -> Alcotest.failf "resume failed: %s" msg
      in
      let second =
        Deconv.Batch.solve_all_result batch ~lambda:`Gcv ~journal ~block:4 ~measurements ()
      in
      Alcotest.(check int) "second run replays every gene" 12
        second.Deconv.Batch.Outcome.replayed;
      Array.iteri
        (fun g out ->
          match (out, first.Deconv.Batch.Outcome.outcomes.(g)) with
          | Ok a, Ok b ->
            if
              not
                (Int64.equal
                   (Int64.bits_of_float a.Deconv.Solver.cost)
                   (Int64.bits_of_float b.Deconv.Solver.cost))
            then Alcotest.failf "gene %d: replay not bit-exact" g
          | Error a, Error b ->
            check_true "replayed error equal" (Robust.Error.equal a b)
          | _ -> Alcotest.failf "gene %d: replay flipped ok/error" g)
        second.Deconv.Batch.Outcome.outcomes)

(* --- bootstrap isolation --- *)

let bootstrap_fixture =
  lazy
    (let _, clean = Lazy.force fixture in
     let kernel =
       Cellpop.Kernel.estimate ~smooth_window:5 params ~rng:(Rng.create 1203) ~n_cells:300 ~times
         ~n_phi:31
     in
     let problem =
       Deconv.Problem.create ~kernel ~basis ~measurements:(Mat.row clean 0) ~params ()
     in
     (problem, Deconv.Solver.solve ~lambda:1e-3 problem))

let test_bootstrap_result_matches_residual () =
  let problem, estimate = Lazy.force bootstrap_fixture in
  let reference =
    Deconv.Bootstrap.residual ~replicates:16 ~level:0.9 problem estimate
      ~rng:(Rng.create 31)
  in
  let outcome =
    Deconv.Bootstrap.residual_result ~replicates:16 ~level:0.9 problem estimate
      ~rng:(Rng.create 31)
  in
  Alcotest.(check int) "attempted" 16 outcome.Deconv.Bootstrap.attempted;
  Alcotest.(check int) "no failures" 0 (List.length outcome.Deconv.Bootstrap.failures);
  match outcome.Deconv.Bootstrap.bands with
  | None -> Alcotest.fail "bands missing"
  | Some bands ->
    let same_bits what a b =
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
            Alcotest.failf "%s.(%d) differs between residual and residual_result" what i)
        a
    in
    same_bits "lower" reference.Deconv.Bootstrap.lower bands.Deconv.Bootstrap.lower;
    same_bits "median" reference.Deconv.Bootstrap.median bands.Deconv.Bootstrap.median;
    same_bits "upper" reference.Deconv.Bootstrap.upper bands.Deconv.Bootstrap.upper;
    let rows = reference.Deconv.Bootstrap.replicates.Mat.rows in
    Alcotest.(check int) "replicate rows" rows bands.Deconv.Bootstrap.replicates.Mat.rows;
    for b = 0 to rows - 1 do
      same_bits
        (Printf.sprintf "replicates row %d" b)
        (Mat.row reference.Deconv.Bootstrap.replicates b)
        (Mat.row bands.Deconv.Bootstrap.replicates b)
    done

(* The second gene of the batch fixture at λ = 1e-5: the unconstrained
   minimizer of every replicate violates a positivity row, so each
   re-solve needs a second pass and the one-pass cap stops it. (The
   bootstrap fixture's first gene at λ = 1e-3 leaves some replicates
   feasible after the first pass.) *)
let test_bootstrap_result_contains_budget_failures () =
  let template, _ = Lazy.force bootstrap_fixture in
  let problem = Deconv.Problem.with_data template (Mat.row (snd (Lazy.force fixture)) 1) in
  let estimate = Deconv.Solver.solve ~lambda:1e-5 problem in
  let outcome =
    Deconv.Bootstrap.residual_result ~replicates:12 ~max_iterations:1 problem estimate
      ~rng:(Rng.create 32)
  in
  Alcotest.(check int) "every replicate capped" 12
    (List.length outcome.Deconv.Bootstrap.failures);
  check_true "bands absent when all replicates fail"
    (Option.is_none outcome.Deconv.Bootstrap.bands);
  List.iter
    (fun (_, e) ->
      check_true "typed budget_exhausted"
        (String.equal (Robust.Error.class_name e) "budget_exhausted"))
    outcome.Deconv.Bootstrap.failures

(* Argument checks are typed: a replicate count below 10 or a level
   outside (0, 1) is [Invalid_input] on both entry points, never an
   assertion failure. *)
let expect_invalid_input ~field what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Robust.Error.Error (Robust.Error.Invalid_input { field = got; _ }) ->
    Alcotest.(check string) (what ^ ": field") field got

let test_bootstrap_rejects_few_replicates () =
  let problem, estimate = Lazy.force bootstrap_fixture in
  expect_invalid_input ~field:"replicates" "residual_result" (fun () ->
      Deconv.Bootstrap.residual_result ~replicates:5 problem estimate ~rng:(Rng.create 1));
  expect_invalid_input ~field:"replicates" "residual" (fun () ->
      Deconv.Bootstrap.residual ~replicates:5 problem estimate ~rng:(Rng.create 1))

let test_bootstrap_rejects_level_one () =
  let problem, estimate = Lazy.force bootstrap_fixture in
  expect_invalid_input ~field:"level" "residual_result" (fun () ->
      Deconv.Bootstrap.residual_result ~replicates:10 ~level:1.0 problem estimate
        ~rng:(Rng.create 1));
  expect_invalid_input ~field:"level" "residual" (fun () ->
      Deconv.Bootstrap.residual ~replicates:10 ~level:1.0 problem estimate ~rng:(Rng.create 1))

let tests =
  [
    ( "resilience-isolation",
      [
        case "map_result captures per-index failures" test_map_result_isolation;
        case "map_result attempts every index" test_map_result_all_attempted;
        case "map_result matches map on success" test_map_result_matches_map_on_success;
        case "set_jobs rejected while work in flight" test_set_jobs_in_flight_rejected;
      ] );
    ( "resilience-faults",
      [
        case "shuffle total on lengths 0 and 1" test_shuffle_total_small;
        shuffle_prop;
      ] );
    ( "resilience-budget",
      [
        case "iteration cap allows exactly n ticks" test_budget_iteration_cap;
        case "bad caps rejected" test_budget_rejects_bad_caps;
      ] );
    ( "resilience-batch",
      [
        case "outcome counts and classes" test_batch_outcome_counts;
        case "budget exhaustion contained per gene" test_batch_budget_exhaustion;
        case "mis-shaped sigmas rejected up front" test_batch_rejects_misshaped_sigmas;
        case "one quality.emit span per solved gene" test_batch_quality_span_per_solved_gene;
      ] );
    ( "resilience-checkpoint",
      [
        case "entry JSON round-trip is bit-exact" test_checkpoint_entry_roundtrip;
        case "journal lifecycle on disk" test_checkpoint_file_lifecycle;
        case "gene keys match the golden keys" test_gene_key_golden;
        case "key parts compose" test_key_parts_compose;
        case "vector and matrix key parts" test_key_vec_mat_parts;
        case "batch replay from journal" test_batch_journal_replay;
      ] );
    ( "resilience-bootstrap",
      [
        case "isolated bootstrap matches residual bitwise" test_bootstrap_result_matches_residual;
        case "budget failures contained per replicate" test_bootstrap_result_contains_budget_failures;
        case "replicates below 10 is a typed error" test_bootstrap_rejects_few_replicates;
        case "level outside (0, 1) is a typed error" test_bootstrap_rejects_level_one;
      ] );
  ]
