(* The repository benchmark: one workload per process, run as a closed loop
   (one client; the next request is sent only after the previous one
   returned) on a pool of [jobs] domains, with every item's output checked.

   [--trace 0] times requests with tracing off and prints the end-to-end
   metrics. [--trace 1] replays a fixed list of requests in four passes
   per cycle (traced at jobs 1, untraced at jobs 1, untraced at jobs 2,
   traced at jobs 2) and prints the per-layer metrics. Either way the last
   line of stdout is one JSON object: correct, attempted, failed, metrics.

   perfbench/README.md lists the workloads, the metrics and which
   end-to-end metric each per-layer metric should move. *)

open Numerics

(* ---------------- fixed settings ---------------- *)

(* Set explicitly so no figure depends on DECONV_JOBS or the machine's
   recommended domain count. *)
let jobs = 2
let params = Cellpop.Params.paper_2011
let n_cells = 4000
let n_phi = 201
let smooth_window = 5
let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12
let noise = Deconv.Noise.Gaussian_fraction 0.05

(* Set-up is repeated at least this often, and until this much time has
   passed, and reported as the median. *)
let setup_repeats = 5
let setup_min_s = 3.0

(* Output checks on every item. The equality residuals and the positivity
   floor are relative to 1 + |alpha|_inf; the interior-point QP meets them
   to about 1e-9. Each workload states its floor on the correlation with
   the truth. *)
let constraint_tol = 1e-6
let positivity_tol = 1e-6

(* A run is correct only if recovery_rmse (RMSE over the truth's range)
   stays below this ceiling. *)
let recovery_ceiling = 0.25

(* ---------------- instrumentation ---------------- *)

(* A benchmark span around one public call. Free when no sink is
   installed. *)
let call name f = Obs.Span.with_ ("bench." ^ name) (fun _ -> f ())

let reading key =
  match List.assoc_opt key (Obs.Resource.read ()) with Some v -> v | None -> 0.0

(* Minor words allocated inside Kernel.estimate, summed while [count_words]
   is set (only in untraced jobs-1 passes, where the GC counters are those
   of the one domain doing the work and span records add nothing). *)
let count_words = ref false
let kernel_words = ref 0.0

let estimate_kernel ?(n_cells = n_cells) ~rng ~times () =
  let w0 = if !count_words then reading "minor_words" else 0.0 in
  let kernel =
    call "Kernel.estimate" (fun () ->
        Cellpop.Kernel.estimate ~smooth_window params ~rng ~n_cells ~times ~n_phi)
  in
  if !count_words then kernel_words := !kernel_words +. (reading "minor_words" -. w0);
  kernel

let chunk_probe =
  {
    Parallel.Probe.now = Obs.Clock.now;
    record =
      (fun ~domain ~lo ~hi ~start_s ~stop_s ->
        Obs.Export.emit
          (Obs.Export.Sample
             {
               Obs.Export.s_kind = "chunk";
               t_s = stop_s;
               values =
                 [
                   ("domain", float_of_int domain);
                   ("lo", float_of_int lo);
                   ("hi", float_of_int hi);
                   ("start", start_s);
                   ("stop", stop_s);
                 ];
             }));
  }

(* Resizing the pool drops its workers; spawn the new ones here, outside
   any timed region. *)
let use_jobs n =
  Parallel.set_jobs n;
  Parallel.parallel_for ~chunk:1 ~n (fun ~lo:_ ~hi:_ -> ())

(* ---------------- items and their checks ---------------- *)

type item = {
  profile : Vec.t;  (** the estimate on the phase grid (empty if failed) *)
  ok : bool;  (** produced, and passed every check *)
  first_attempt : bool;  (** solved by the first constrained attempt *)
}

type response = {
  items : item array;
  recovery : float list;  (** RMSE over truth range, per recovered profile *)
  attempts : int;  (** solver attempts behind the items *)
}

let failed_item = { profile = [||]; ok = false; first_attempt = false }

(* Constraints.residual_conservation and residual_rate_continuity are these
   rows dotted with alpha; building the rows once keeps the checks from
   dominating the loop. *)
let conservation_row = Deconv.Constraints.conservation_row params basis
let rate_continuity_row = Deconv.Constraints.rate_continuity_row params basis

let check ~floor ~truth ~alpha ~profile =
  let finite v = Array.for_all Float.is_finite v in
  let scale = 1.0 +. Vec.norm_inf alpha in
  finite alpha && finite profile
  && Float.abs (Vec.dot conservation_row alpha) <= constraint_tol *. scale
  && Float.abs (Vec.dot rate_continuity_row alpha) <= constraint_tol *. scale
  && Vec.min profile >= -.positivity_tol *. scale
  && Stats.correlation profile truth >= floor

let estimate_item ~floor ~truth ~first_attempt (est : Deconv.Solver.estimate) =
  let profile = est.Deconv.Solver.profile in
  { profile; ok = check ~floor ~truth ~alpha:est.Deconv.Solver.alpha ~profile; first_attempt }

(* ---------------- workloads ---------------- *)

type workload = {
  item_unit : string;
  request_unit : string;
  first_pass : int;  (** requests 0 .. first_pass-1 visit every input once *)
  trace_requests : int;  (** requests replayed by each traced pass *)
  request : int -> unit -> response;
      (** [request i] does the library work of request [i] (the timed
          part) and returns the output check (untimed) *)
  probe : int -> unit;
      (** extra calls made after request [i] in the traced jobs-2 pass,
          outside its span, for a layer the request reaches only through
          code without spans *)
}

let request_rng seed i = Rng.create ((seed * 1_000_003) + i)

(* Input slot of request [i]; the warm-up request is [i = -1]. *)
let slot i n = ((i mod n) + n) mod n

let lv_x1 () =
  let phases, f1, _ =
    Biomodels.Lotka_volterra.phase_profiles Biomodels.Lotka_volterra.default_params
      ~x0:Biomodels.Lotka_volterra.default_x0 ~n_phi:400
  in
  fun phi -> Interp.linear_clamped ~x:phases ~y:f1 phi

let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.5 ~width:0.12 ~height:4.0 ()

(* Population-level data from a Monte-Carlo population that is independent
   of every kernel used to invert it. *)
let population_signals ?(n0 = n_cells) rng ~times truths =
  let snapshots = Cellpop.Population.simulate params ~rng ~n0 ~times in
  Array.map
    (fun f -> Array.map (Cellpop.Population.mean_signal params (fun ~phi -> f phi)) snapshots)
    truths

(* What `deconv-cli deconvolve` does for one time course, with a fresh
   kernel seed per request. *)
let deconvolve seed =
  let pool_size = 60 in
  let rng = Rng.create seed in
  let times = Dataio.Datasets.lv_measurement_times in
  let truths = [| Biomodels.Ftsz.profile; lv_x1 (); pulse |] in
  let clean = population_signals (Rng.split rng) ~times truths in
  let pool =
    Array.init pool_size (fun i ->
        let k = i mod Array.length truths in
        let noisy, sigmas = Deconv.Noise.apply noise (Rng.split rng) clean.(k) in
        (truths.(k), noisy, sigmas))
  in
  let request i =
    let truth_fn, measurements, sigmas = pool.(slot i pool_size) in
    let rng = request_rng seed i in
    let kernel = estimate_kernel ~rng:(Rng.split rng) ~times () in
    let problem =
      call "Problem.create" (fun () ->
          Deconv.Problem.create ~sigmas ~kernel ~basis ~measurements ~params ())
    in
    let repaired, _ =
      call "Solver.repair_problem" (fun () -> Deconv.Solver.repair_problem problem)
    in
    let selected =
      call "Lambda.select_result" (fun () ->
          Deconv.Lambda.select_result repaired ~method_:`Gcv ~rng:(Rng.split rng) ())
    in
    (* As the CLI does: a failed selection falls back to lambda = 1e-4. *)
    let lambda = match selected with Ok l -> l | Error _ -> 1e-4 in
    let result =
      call "Solver.solve_robust" (fun () -> Deconv.Solver.solve_robust ~lambda problem)
    in
    fun () ->
      let truth = Array.map truth_fn kernel.Cellpop.Kernel.phases in
      match result with
      | Error _ -> { items = [| failed_item |]; recovery = []; attempts = 1 }
      | Ok (est, report) ->
        let first_attempt =
          match report.Robust.Report.attempts with
          | [ { Robust.Report.stage = Robust.Report.Constrained_qp; outcome = Ok (); _ } ] ->
            true
          | _ -> false
        in
        let item = estimate_item ~floor:0.9 ~truth ~first_attempt est in
        let item = { item with ok = item.ok && Result.is_ok selected } in
        {
          items = [| item |];
          recovery = [ Stats.nrmse truth est.Deconv.Solver.profile ];
          attempts = Robust.Report.num_attempts report;
        }
  in
  {
    item_unit = "time course";
    request_unit = "one deconvolution";
    first_pass = pool_size;
    trace_requests = 12;
    request;
    probe = (fun _ -> ());
  }

(* One shared kernel and a panel of Gaussian-pulse genes built like the
   CLI's synthetic_panel, plus 5 % measurement noise fitted unweighted as
   the CLI's batch does. With less noise GCV picks tiny lambdas and about
   one gene in five thousand (noise-free) or thirty thousand (2 %) stalls
   the QP; at 5 % none did in 40000, but the narrowest low pulses then
   correlate with their truth only down to about 0.78, hence the lower
   floor. Each request solves a fixed block of genes. *)
let batch seed =
  let panel = 1024 and block = 32 in
  let blocks = panel / block in
  let rng = Rng.create seed in
  let times = Dataio.Datasets.lv_measurement_times in
  let kernel = estimate_kernel ~rng:(Rng.split rng) ~times () in
  let prepared =
    call "Batch.prepare" (fun () -> Deconv.Batch.prepare ~kernel ~basis ~params ())
  in
  let prng = Rng.split rng in
  let genes =
    Array.init panel (fun _ ->
        let center = Rng.uniform prng ~lo:0.15 ~hi:0.85 in
        let width = Rng.uniform prng ~lo:0.08 ~hi:0.15 in
        let height = Rng.uniform prng ~lo:1.0 ~hi:4.0 in
        Biomodels.Gene_profile.gaussian_pulse ~center ~width ~height ())
  in
  let nrng = Rng.split rng in
  let rows =
    Array.map
      (fun f ->
        fst (Deconv.Noise.apply noise nrng (Deconv.Forward.apply_fn kernel f)))
      genes
  in
  let truths = Array.map (fun f -> Array.map f kernel.Cellpop.Kernel.phases) genes in
  let block_rows b = Array.sub rows (b * block) block in
  let measurements = Array.init blocks (fun b -> Mat.of_rows (block_rows b)) in
  let request i =
    let b = slot i blocks in
    let outcome =
      call "Batch.solve_all_result" (fun () ->
          Deconv.Batch.solve_all_result prepared ~lambda:`Gcv ~measurements:measurements.(b) ())
    in
    fun () ->
      let items =
        Array.mapi
          (fun g -> function
            | Ok est ->
              estimate_item ~floor:0.6 ~truth:truths.((b * block) + g) ~first_attempt:true est
            | Error _ -> failed_item)
          outcome.Deconv.Batch.Outcome.outcomes
      in
      let recovery =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun g -> function
                  | Ok est -> [ Stats.nrmse truths.((b * block) + g) est.Deconv.Solver.profile ]
                  | Error _ -> [])
                outcome.Deconv.Batch.Outcome.outcomes))
      in
      { items; recovery; attempts = block }
  in
  (* Batch builds one Problem.t per gene internally, where no span is
     recorded; time the same construction from here. *)
  let probe i =
    Array.iter
      (fun measurements ->
        let (_ : Deconv.Problem.t) =
          call "Problem.create" (fun () ->
              Deconv.Problem.create ~kernel ~basis ~measurements ~params ())
        in
        ())
      (block_rows (slot i blocks))
  in
  {
    item_unit = "gene";
    request_unit = "32-gene batch";
    first_pass = blocks;
    trace_requests = 2;
    request;
    probe;
  }

(* ftsZ problems, each set up once with its GCV lambda and estimate; each
   request is a residual bootstrap of one of them. The problems share one
   data population and one kernel, whose Monte-Carlo error would otherwise
   set recovery_rmse for the whole run; set-up affords 20000 founders for
   each. *)
let bootstrap seed =
  let problems = 32 and replicates = 50 and founders = 20_000 in
  let rng = Rng.create seed in
  let times = Dataio.Datasets.ftsz_measurement_times in
  let clean =
    (population_signals ~n0:founders (Rng.split rng) ~times [| Biomodels.Ftsz.profile |]).(0)
  in
  let kernel = estimate_kernel ~n_cells:founders ~rng:(Rng.split rng) ~times () in
  let phases = kernel.Cellpop.Kernel.phases in
  let truth = Array.map Biomodels.Ftsz.profile phases in
  let psi = Spline.Basis.design basis phases in
  let fail stage e =
    failwith (Printf.sprintf "bootstrap set-up: %s failed: %s" stage (Robust.Error.to_string e))
  in
  let pool =
    Array.init problems (fun _ ->
        let measurements, sigmas = Deconv.Noise.apply noise (Rng.split rng) clean in
        let problem =
          call "Problem.create" (fun () ->
              Deconv.Problem.create ~sigmas ~kernel ~basis ~measurements ~params ())
        in
        let lambda =
          match
            call "Lambda.select_result" (fun () ->
                Deconv.Lambda.select_result problem ~method_:`Gcv ())
          with
          | Ok l -> l
          | Error e -> fail "lambda selection" e
        in
        match
          call "Solver.solve_robust" (fun () -> Deconv.Solver.solve_robust ~lambda problem)
        with
        | Ok (est, _) -> (problem, est)
        | Error e -> fail "solve" e)
  in
  let request i =
    let problem, est = pool.(slot i problems) in
    let outcome =
      call "Bootstrap.residual_result" (fun () ->
          Deconv.Bootstrap.residual_result ~replicates problem est ~rng:(request_rng seed i))
    in
    fun () ->
      let failed = Array.make (List.length outcome.Deconv.Bootstrap.failures) failed_item in
      match outcome.Deconv.Bootstrap.bands with
      | None -> { items = failed; recovery = []; attempts = replicates }
      | Some bands ->
        let reps = bands.Deconv.Bootstrap.replicates in
        (* Replicates come back as grid profiles; their coefficients are
           recovered exactly (the profile lies in the basis span) to check
           the equality constraints. *)
        let ok =
          Array.init reps.Mat.rows (fun r ->
              let profile = Mat.row reps r in
              let alpha = Linalg.qr_lstsq psi profile in
              { profile; ok = check ~floor:0.9 ~truth ~alpha ~profile; first_attempt = true })
        in
        {
          items = Array.append ok failed;
          recovery = [ Stats.nrmse truth bands.Deconv.Bootstrap.median ];
          attempts = replicates;
        }
  in
  {
    item_unit = "replicate";
    request_unit = "50-replicate bootstrap";
    first_pass = problems;
    trace_requests = 2;
    request;
    probe = (fun _ -> ());
  }

let workloads = [ ("deconvolve", deconvolve); ("batch", batch); ("bootstrap", bootstrap) ]

(* ---------------- statistics and output ---------------- *)

let median xs = Stats.quantile (Array.of_list xs) 0.5
let ratio a b = if b > 0.0 then a /. b else 0.0

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* FNV-1a over the IEEE bits of every profile value, in request order. *)
let digest_profiles h items =
  Array.fold_left
    (fun h it ->
      Array.fold_left
        (fun h v -> Int64.mul (Int64.logxor h (Int64.bits_of_float v)) 0x100000001b3L)
        h it.profile)
    h items

let fnv_offset = 0xcbf29ce484222325L

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_metric (name, unit, v) note =
  Printf.printf "  %-34s %14.6g %-6s %s\n" name v unit note

(* ---------------- --trace 0: the timed loop ---------------- *)

let timed_run ~name ~seed ~seconds make =
  use_jobs jobs;
  let setup_start = Obs.Clock.now () in
  let rec set_up acc =
    let t0 = Obs.Clock.now () in
    let w = make seed in
    let acc = (Obs.Clock.now () -. t0) :: acc in
    if List.length acc < setup_repeats || Obs.Clock.now () -. setup_start < setup_min_s then
      set_up acc
    else (w, acc)
  in
  let w, setup_times = set_up [] in
  let setup_s = median setup_times in
  let (_ : response) = w.request (-1) () in
  let rss = ref [] in
  let times = ref [] and attempted = ref 0 and failed = ref 0 and recovery = ref [] in
  let start = Obs.Clock.now () in
  let i = ref 0 in
  while Obs.Clock.now () -. start < seconds do
    let t0 = Obs.Clock.now () in
    let checker = w.request !i in
    times := (Obs.Clock.now () -. t0) :: !times;
    let r = checker () in
    attempted := !attempted + Array.length r.items;
    Array.iter (fun it -> if not it.ok then incr failed) r.items;
    if !i < w.first_pass then recovery := r.recovery @ !recovery;
    rss := reading "rss_bytes" :: !rss;
    incr i
  done;
  let n = List.length !times in
  let busy_s = List.fold_left ( +. ) 0.0 !times in
  let ms = Array.of_list (List.map (fun t -> t *. 1e3) !times) in
  let p50 = Stats.quantile ms 0.5 and p90 = Stats.quantile ms 0.9 in
  let beyond_p90 = Array.fold_left (fun k t -> if t > p90 then k + 1 else k) 0 ms in
  let recovery_rmse = mean !recovery in
  let ok_frac = 1.0 -. ratio (float_of_int !failed) (float_of_int !attempted) in
  Printf.printf "workload %s: closed loop, 1 client, jobs %d, %d s; item = %s, request = %s\n"
    name jobs (int_of_float seconds) w.item_unit w.request_unit;
  let metrics =
    [
      ("setup_s", "s", setup_s, Printf.sprintf "median of %d set-ups" (List.length setup_times));
      ( "items_per_s", "1/s", float_of_int !attempted /. busy_s,
        Printf.sprintf "%d items over %.3f s of requests" !attempted busy_s );
      ("request_ms_p50", "ms", p50, Printf.sprintf "%d requests" n);
      ( "request_ms_p90", "ms", p90,
        Printf.sprintf "%d requests, %d beyond p90%s" n beyond_p90
          (if beyond_p90 < 10 then " (fewer than 10: run longer)" else "") );
      ( "ok_frac", "ratio", ok_frac,
        Printf.sprintf "failed_frac %.6g = %d failed / %d attempted" (1.0 -. ok_frac) !failed
          !attempted );
      ( "recovery_rmse", "ratio", recovery_rmse,
        Printf.sprintf "mean of %d profiles from the first %d requests, ceiling %g"
          (List.length !recovery) w.first_pass recovery_ceiling );
      ("rss_mb", "MB", median !rss /. 1e6, "median resident set, read after each request");
    ]
  in
  List.iter (fun (n, u, v, note) -> print_metric (n, u, v) note) metrics;
  let correct = !failed = 0 && recovery_rmse <= recovery_ceiling in
  print_result ~correct ~attempted:!attempted ~failed:!failed
    (List.map (fun (n, u, v, _) -> (n, u, v)) metrics);
  correct

(* ---------------- --trace 1: the traced passes ---------------- *)

type span_stat = { mutable calls : int; mutable total_s : float; mutable self_s : float }

let stat tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let s = { calls = 0; total_s = 0.0; self_s = 0.0 } in
    Hashtbl.replace tbl name s;
    s

let is_bench name = String.length name >= 6 && String.equal (String.sub name 0 6) "bench."

(* Per-name call counts, total and self time into [stats]; returns, per
   request span, the time no program span covers. A benchmark call span
   with no child counts as covered (the public call has no spans inside);
   one with children is covered only through them. *)
let analyze stats events =
  let spans = List.filter_map (function Obs.Export.Span s -> Some s | _ -> None) events in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Export.span) ->
      Option.iter
        (fun p -> Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p)))
        s.Obs.Export.parent)
    spans;
  let dur (s : Obs.Export.span) = s.Obs.Export.stop_s -. s.Obs.Export.start_s in
  let kids (s : Obs.Export.span) = Option.value ~default:[] (Hashtbl.find_opt children s.Obs.Export.id) in
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  List.iter
    (fun (s : Obs.Export.span) ->
      let st = stat stats s.Obs.Export.name in
      st.calls <- st.calls + 1;
      st.total_s <- st.total_s +. dur s;
      st.self_s <- st.self_s +. dur s -. sum dur (kids s))
    spans;
  let rec covered (s : Obs.Export.span) =
    match kids s with
    | cs when is_bench s.Obs.Export.name && cs <> [] -> sum covered cs
    | _ -> dur s
  in
  List.filter_map
    (fun (s : Obs.Export.span) ->
      if String.equal s.Obs.Export.name "bench.request" then Some (dur s -. sum covered (kids s))
      else None)
    spans

(* Run [f] with a memory sink, the metrics registry and the chunk probe
   installed; return its result, the events and the counters. *)
let traced f =
  let sink, events = Obs.Export.memory () in
  Obs.Export.install sink;
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Parallel.Probe.install chunk_probe;
  let r = f () in
  Parallel.Probe.uninstall ();
  let counters =
    List.filter_map
      (fun (m : Obs.Metrics.snapshot) ->
        match (m.Obs.Metrics.kind, List.assoc_opt "value" m.Obs.Metrics.fields) with
        | Obs.Metrics.Counter, Some v -> Some (m.Obs.Metrics.name, v)
        | _ -> None)
      (Obs.Metrics.snapshot ())
  in
  Obs.Metrics.disable ();
  Obs.Export.uninstall ();
  (r, events (), counters)

type pass = {
  request_s : float list;
  responses : response list;
  events : Obs.Export.event list;
  counters : (string * float) list;
  minor_words : float;
  major_collections : float;
  words_in_kernel : float;
  digest : int64;
}

let run_pass ?(probe = false) ~trace ~words w ids =
  count_words := words;
  kernel_words := 0.0;
  let minor0 = reading "minor_words" and major0 = reading "major_collections" in
  let body () =
    List.map
      (fun i ->
        let t0 = Obs.Clock.now () in
        let checker = Obs.Span.with_ "bench.request" (fun _ -> w.request i) in
        let dt = Obs.Clock.now () -. t0 in
        if probe then w.probe i;
        (dt, checker))
      ids
  in
  let timed, events, counters = if trace then traced body else (body (), [], []) in
  count_words := false;
  let responses = List.map (fun (_, checker) -> checker ()) timed in
  {
    request_s = List.map fst timed;
    responses;
    events;
    counters;
    minor_words = reading "minor_words" -. minor0;
    major_collections = reading "major_collections" -. major0;
    words_in_kernel = !kernel_words;
    digest = List.fold_left (fun h r -> digest_profiles h r.items) fnv_offset responses;
  }

let sum_over f passes = List.fold_left (fun a p -> a +. f p) 0.0 passes
let counter passes name = sum_over (fun p -> Option.value ~default:0.0 (List.assoc_opt name p.counters)) passes
let items_of p = List.concat_map (fun r -> Array.to_list r.items) p.responses

let traced_run ~name ~seed ~seconds make =
  (* Set-up at jobs 1, once untraced (allocation counts) and once traced:
     layers a workload reaches only while setting up are reported from
     here. *)
  use_jobs 1;
  count_words := true;
  kernel_words := 0.0;
  let (_ : workload) = make seed in
  count_words := false;
  let setup_words = !kernel_words in
  let w, setup_events, setup_counters = traced (fun () -> make seed) in
  let setup_stats = Hashtbl.create 64 in
  let (_ : float list) = analyze setup_stats setup_events in
  let ids = List.init w.trace_requests (fun i -> i) in
  let t1 = ref [] and u1 = ref [] and u2 = ref [] and t2 = ref [] in
  let start = Obs.Clock.now () in
  let cycle () =
    use_jobs 1;
    t1 := run_pass ~trace:true ~words:false w ids :: !t1;
    u1 := run_pass ~trace:false ~words:true w ids :: !u1;
    use_jobs jobs;
    let (_ : response) = w.request (-1) () in
    u2 := run_pass ~trace:false ~words:false w ids :: !u2;
    t2 := run_pass ~probe:true ~trace:true ~words:false w ids :: !t2
  in
  cycle ();
  while Obs.Clock.now () -. start < seconds do
    cycle ()
  done;
  let all = !t1 @ !u1 @ !u2 @ !t2 in
  let digests = List.sort_uniq Int64.compare (List.map (fun p -> p.digest) all) in
  let items = List.concat_map items_of all in
  let attempted = List.length items in
  let failed = List.length (List.filter (fun it -> not it.ok) items) in
  (* Times come from the traced jobs-2 passes; counts from the traced
     jobs-1 passes, where they repeat exactly (at jobs 2 both domains can
     miss the factorization cache at once). *)
  let passes = !t2 in
  let stats = Hashtbl.create 64 in
  let unattributed = List.concat_map (fun p -> analyze (Hashtbl.create 64) p.events) !t1 in
  List.iter (fun p -> ignore (analyze stats p.events : float list)) passes;
  let counts = counter !t1 in
  let per_pass = float_of_int w.trace_requests in
  let n_req = per_pass *. float_of_int (List.length passes) in
  let t2_items = List.concat_map items_of passes in
  let n_items = float_of_int (List.length t2_items) in
  let in_requests name = (stat stats name).calls > 0 in
  (* A layer's spans and counters: from the requests if they reach it,
     else from the traced set-up. *)
  let layer name =
    if in_requests name then (stats, counts, n_req, "per request")
    else
      ( setup_stats,
        (fun c -> Option.value ~default:0.0 (List.assoc_opt c setup_counters)),
        1.0,
        "per set-up" )
  in
  let total_ms ?(self = false) name =
    let s, _, n, _ = layer name in
    let st = stat s name in
    (if self then st.self_s else st.total_s) *. 1e3 /. n
  in
  let per_call_ms name =
    let s, _, _, where = layer name in
    let st = stat s name in
    (ratio st.total_s (float_of_int st.calls) *. 1e3, where ^ ", per call")
  in
  let _, _, _, kernel_where = layer "kernel.estimate" in
  let cells =
    let _, ctr, n, _ = layer "population.simulate" in
    ctr "population.cells_simulated" /. n
  in
  let kernel_words_per =
    if in_requests "kernel.estimate" then
      sum_over (fun p -> p.words_in_kernel) !u1 /. (per_pass *. float_of_int (List.length !u1))
    else setup_words
  in
  let create_ms, create_where = per_call_ms "bench.Problem.create" in
  let select_ms, select_where = per_call_ms "lambda.select" in
  let candidates =
    let s, _, _, _ = layer "lambda.select" in
    ratio (float_of_int (stat s "lambda.candidate").calls) (float_of_int (stat s "lambda.select").calls)
  in
  let solver_span =
    if in_requests "solver.solve_robust" then "solver.solve_robust" else "solver.constrained"
  in
  let per_item ?(self = false) name =
    let st = stat stats name in
    (if self then st.self_s else st.total_s) *. 1e3 /. n_items
  in
  let hits = counts "spectral.cache_hits" and misses = counts "spectral.cache_misses" in
  let qp_solves = counts "qp.solves" in
  let responses = List.concat_map (fun p -> p.responses) passes in
  let first = List.length (List.filter (fun it -> it.first_attempt && it.ok) t2_items) in
  let attempts = List.fold_left (fun a r -> a + r.attempts) 0 responses in
  (* Worker domain ids change whenever the pool is re-created, so busy
     time is grouped by domain within each pass. *)
  let busy_max, busy_total =
    List.fold_left
      (fun (mx, tot) p ->
        let per = Hashtbl.create 4 in
        List.iter
          (fun (c : Obs.Utilization.chunk) ->
            let d = c.Obs.Utilization.domain in
            let t = c.Obs.Utilization.stop_s -. c.Obs.Utilization.start_s in
            Hashtbl.replace per d (t +. Option.value ~default:0.0 (Hashtbl.find_opt per d)))
          (Obs.Utilization.chunks_of_events p.events);
        ( mx +. Hashtbl.fold (fun _ v a -> Float.max a v) per 0.0,
          tot +. Hashtbl.fold (fun _ v a -> a +. v) per 0.0 ))
      (0.0, 0.0) passes
  in
  let request_total = sum_over (fun p -> List.fold_left ( +. ) 0.0 p.request_s) passes in
  let med ps = median (List.concat_map (fun p -> p.request_s) ps) in
  let u1_items = float_of_int (List.length (List.concat_map items_of !u1)) in
  let metrics =
    [
      ("kernel.estimate_ms", "ms", total_ms "kernel.estimate", kernel_where);
      ("population.simulate_ms", "ms", total_ms "population.simulate", kernel_where);
      ( "kernel.deposit_ms", "ms", total_ms ~self:true "kernel.estimate",
        kernel_where ^ ", kernel.estimate self time" );
      ("population.cells", "count", cells, kernel_where ^ ", cells at the last snapshot");
      ( "population.minor_words", "words", kernel_words_per,
        kernel_where ^ ", in Kernel.estimate at jobs 1" );
      ("problem.create_ms", "ms", create_ms, create_where);
      ("lambda.select_ms", "ms", select_ms, select_where);
      ("lambda.candidates", "count", candidates, "per selection");
      ("spectral.factorizations", "count", counts "spectral.factorizations" /. n_req, "per request");
      ( "spectral.cache_hit_ratio", "ratio", ratio hits (hits +. misses),
        Printf.sprintf "%.0f hits, %.0f misses" hits misses );
      ("solver.solve_ms", "ms", per_item solver_span, solver_span ^ " per item");
      ("solver.constrained_self_ms", "ms", per_item ~self:true "solver.constrained", "per item");
      ("qp.solve_ms", "ms", per_item "qp.solve", "per item");
      ( "qp.iterations_per_solve", "count", ratio (counts "qp.iterations") qp_solves,
        Printf.sprintf "%.0f solves" qp_solves );
      ("qp.warm_start_ratio", "ratio", ratio (counts "qp.warm_starts") qp_solves, "warm starts / solves");
      ( "solver.first_attempt_ratio", "ratio", ratio (float_of_int first) (float_of_int attempts),
        Printf.sprintf "%d of %d attempts" first attempts );
      ( "parallel.busy_frac", "ratio", ratio busy_total (float_of_int jobs *. request_total),
        "chunk time / (jobs x request time)" );
      ( "parallel.imbalance", "ratio",
        ratio busy_max (busy_total /. float_of_int jobs),
        "max / mean domain busy time" );
      ( "parallel.speedup_j2", "ratio", ratio (med !u1) (med !u2),
        "untraced median request, jobs 1 / jobs 2" );
      ( "gc.minor_words_per_item", "words", ratio (sum_over (fun p -> p.minor_words) !u1) u1_items,
        "untraced, jobs 1" );
      ( "gc.major_collections_per_request", "count",
        sum_over (fun p -> p.major_collections) !u2 /. n_req, "untraced, jobs 2" );
      ( "obs.trace_overhead_frac", "ratio", ratio (med !t2 -. med !u2) (med !u2),
        "traced vs untraced median request, jobs 2" );
      ( "unattributed_ms", "ms", mean unattributed *. 1e3,
        "per request, jobs 1: time no program span covers" );
    ]
  in
  Printf.printf "workload %s: traced passes, %d cycles of %d requests; item = %s, request = %s\n"
    name (List.length passes) w.trace_requests w.item_unit w.request_unit;
  List.iter (fun (n, u, v, note) -> print_metric (n, u, v) note) metrics;
  let digest_ok =
    match digests with
    | [ d ] ->
      Printf.printf "  profile digest, every pass at jobs 1 and 2: %016Lx\n" d;
      true
    | _ ->
      Printf.printf "  profile digest differs between passes (%d distinct)\n" (List.length digests);
      false
  in
  let correct = failed = 0 && digest_ok in
  print_result ~correct ~attempted ~failed (List.map (fun (n, u, v, _) -> (n, u, v)) metrics);
  correct

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME deconvolve, batch or bootstrap");
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some make ->
    let seconds = float_of_int !seconds in
    let correct =
      if !trace = 0 then timed_run ~name:!workload ~seed:!seed ~seconds make
      else traced_run ~name:!workload ~seed:!seed ~seconds make
    in
    exit (if correct then 0 else 1)
