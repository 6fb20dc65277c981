open Numerics

type estimate = {
  alpha : Vec.t;
  profile : Vec.t;
  fitted : Vec.t;
  lambda : float;
  cost : float;
  data_misfit : float;
  roughness : float;
  active_positivity : int;
  qp_iterations : int;
}

(* Quadratic form pieces of eq. 5:
   C(α) = (g − Aα)ᵀ W (g − Aα) + λ αᵀ Ω α
        = αᵀ(AᵀWA + λΩ)α − 2(AᵀWg)ᵀα + const,
   i.e. QP with H = 2(AᵀWA + λΩ), linear term −2AᵀWg. An optional ridge
   (the cascade's escalating floor) adds ridge·I inside the parentheses. *)
let quadratic_pieces ?(ridge = 0.0) problem lambda =
  let a = Problem.design problem in
  let w = Problem.weights problem in
  let omega = Problem.penalty problem in
  let normal = Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:omega ~lambda in
  if ridge > 0.0 then
    for i = 0 to normal.Mat.rows - 1 do
      Mat.set normal i i (Mat.get normal i i +. ridge)
    done;
  let h = Mat.scale 2.0 normal in
  let wg = Vec.mul w problem.Problem.measurements in
  let g_lin = Vec.scale (-2.0) (Mat.tmv a wg) in
  (a, w, omega, h, g_lin)

let finish problem lambda a w omega (alpha : Vec.t) iterations active =
  let fitted = Mat.mv a alpha in
  let residuals = Vec.sub problem.Problem.measurements fitted in
  let data_misfit =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> acc := !acc +. (w.(i) *. r *. r)) residuals;
    !acc
  in
  let roughness = Vec.dot alpha (Mat.mv omega alpha) in
  let profile =
    Spline.Basis.combine_many problem.Problem.basis alpha
      problem.Problem.kernel.Cellpop.Kernel.phases
  in
  {
    alpha;
    profile;
    fitted;
    lambda;
    cost = data_misfit +. (lambda *. roughness);
    data_misfit;
    roughness;
    active_positivity = active;
    qp_iterations = iterations;
  }

(* The full constrained solve, returning the raw QP solution alongside the
   estimate so the cascade can distinguish "converged" from "gave up". The
   QP runs on the free coefficients β of α = Zβ (ZᵀHZ, Zᵀg and the
   positivity rows ΨZ), so the equality rows hold by construction and the
   solution's [x] and [active] are in β coordinates. *)
let solve_constrained ?on_iteration ?(ridge = 0.0) ?(max_iter = 100) ~lambda problem =
  Obs.Span.with_ "solver.constrained" (fun sp ->
      Obs.Span.set_float sp "lambda" lambda;
      Obs.Span.set_float sp "ridge" ridge;
      let a, w, omega, h, g_lin = quadratic_pieces ~ridge problem lambda in
      let z = problem.Problem.null_space in
      let h = Mat.matmul (Mat.transpose z) (Mat.matmul h z) and g_lin = Mat.tmv z g_lin in
      let ineq =
        Option.map (fun (p : Mat.t) -> (p, Vec.zeros p.Mat.rows)) problem.Problem.positivity
      in
      let solution =
        Optimize.Qp.solve ?on_iteration ~max_iter { Optimize.Qp.h; g = g_lin; ineq }
      in
      let est =
        finish problem lambda a w omega (Mat.mv z solution.Optimize.Qp.x)
          solution.Optimize.Qp.iterations
          (List.length solution.Optimize.Qp.active)
      in
      Obs.Span.set_int sp "qp_iterations" est.qp_iterations;
      Obs.Span.set_int sp "active_positivity" est.active_positivity;
      Obs.Metrics.incr "solver.constrained_solves";
      Obs.Metrics.incr ~by:(float_of_int est.qp_iterations) "solver.qp_iterations";
      Obs.Metrics.observe "solver.active_positivity" (float_of_int est.active_positivity);
      (est, solution))

let solve ?budget ?(lambda = 1e-4) ?ridge problem =
  let on_iteration = Option.map Robust.Budget.on_iteration budget in
  (* The boundary of the typed-error contract for the raw (non-cascade)
     entry point: a singular system and a stalled QP become Robust.Error
     here, so direct callers — Batch.solve_gene_result, the bootstrap's
     replicate re-solves — never see a bare Singular or a half-converged
     iterate. *)
  match solve_constrained ?on_iteration ?ridge ~lambda problem with
  | est, { Optimize.Qp.status = Optimize.Qp.Converged; _ } -> est
  | _, { Optimize.Qp.status = Optimize.Qp.Stalled; iterations; _ } ->
    Robust.Error.raise_error (Robust.Error.Qp_stalled { iterations })
  | exception Linalg.Singular _ ->
    Robust.Error.raise_error (Robust.Error.Ill_conditioned { cond = Float.infinity })

(* The one direct (Cholesky) path, and the only one that accepts a ridge:
   the cascade's unconstrained stage and the naive baseline. *)
let solve_unconstrained ?(lambda = 1e-4) ?ridge problem =
  let a, w, omega, h, g_lin = quadratic_pieces ?ridge problem lambda in
  finish problem lambda a w omega (Optimize.Qp.unconstrained h g_lin) 0 0

let naive problem =
  (* λ chosen only to make the normal matrix invertible; relative to the
     data scale it is ~1e-12, so the fit is effectively unregularized. *)
  let scale = Float.max 1e-300 (Vec.norm_inf problem.Problem.measurements) in
  { (solve_unconstrained ~lambda:(1e-12 *. scale *. scale) problem) with lambda = 0.0 }

(* ---------------- graceful degradation ---------------- *)

type policy = {
  max_retries : int;
  condition_limit : float;
  qp_max_iter : int;
  enable_unconstrained : bool;
  enable_richardson_lucy : bool;
  repair_inputs : bool;
}

let default_policy =
  {
    max_retries = 2;
    (* κ ≈ 1e10 still leaves ~6 significant digits in double precision and
       shows up on routine noisy datasets; only precondition when a direct
       solve is genuinely at risk. *)
    condition_limit = 1e12;
    qp_max_iter = 100;
    enable_unconstrained = true;
    enable_richardson_lucy = true;
    repair_inputs = true;
  }

(* The retry schedule: each retry multiplies λ by [lambda_boost]; the
   first retry's ridge is [ridge_floor]·‖H‖_max and each further one
   multiplies it by [ridge_growth]. *)
let lambda_boost = 10.0
let ridge_floor = 1e-8
let ridge_growth = 100.0

(* Richardson–Lucy iterations of the last-resort stage. *)
let rl_iterations = 200

(* Sigma that effectively removes a measurement from the fit (weight
   1/σ² ~ 1e-300) while staying finite and positive for validation. *)
let masking_sigma = 1e150

let repair_problem problem =
  let n = Array.length problem.Problem.measurements in
  let meas = Array.copy problem.Problem.measurements in
  let sig_ = Array.copy problem.Problem.sigmas in
  let replacement =
    let good = List.filter Robust.Validate.usable_sigma (Array.to_list sig_) in
    match List.sort Float.compare good with
    | [] -> 1.0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let floored = ref 0 and masked = ref 0 in
  for i = 0 to n - 1 do
    if not (Robust.Validate.usable_sigma sig_.(i)) then begin
      sig_.(i) <- replacement;
      incr floored
    end;
    if not (Float.is_finite meas.(i)) then begin
      meas.(i) <- 0.0;
      sig_.(i) <- masking_sigma;
      incr masked
    end
  done;
  let repairs =
    (if !masked > 0 then
       [ { Robust.Report.action = "masked non-finite measurements"; count = !masked } ]
     else [])
    @
    if !floored > 0 then
      [ { Robust.Report.action = "replaced invalid sigmas"; count = !floored } ]
    else []
  in
  if repairs = [] then (problem, [])
  else (Problem.with_data ~sigmas:sig_ problem meas, repairs)

let finite_vec = Robust.Validate.all_finite

let finite_estimate e =
  finite_vec e.alpha && finite_vec e.profile && finite_vec e.fitted && Float.is_finite e.cost

(* Wrap the Richardson–Lucy grid estimate in the [estimate] record: project
   the grid profile onto the spline basis so [profile_on] keeps working,
   and recompute the cost pieces against the (repaired) measurements. *)
let estimate_of_richardson_lucy problem lambda (rl : Richardson_lucy.result) =
  let basis = problem.Problem.basis in
  let phases = problem.Problem.kernel.Cellpop.Kernel.phases in
  let alpha =
    match Linalg.qr_lstsq (Spline.Basis.design basis phases) rl.Richardson_lucy.profile with
    | alpha -> alpha
    | exception Linalg.Singular _ -> Vec.zeros basis.Spline.Basis.size
  in
  let w = Problem.weights problem in
  let residuals = Vec.sub problem.Problem.measurements rl.Richardson_lucy.fitted in
  let data_misfit =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> acc := !acc +. (w.(i) *. r *. r)) residuals;
    !acc
  in
  let omega = Problem.penalty problem in
  let roughness = Vec.dot alpha (Mat.mv omega alpha) in
  {
    alpha;
    profile = rl.Richardson_lucy.profile;
    fitted = rl.Richardson_lucy.fitted;
    lambda;
    cost = data_misfit +. (lambda *. roughness);
    data_misfit;
    roughness;
    active_positivity = 0;
    qp_iterations = rl.Richardson_lucy.iterations;
  }

(* One rung of the degradation ladder. A rung carries its own λ, ridge,
   degradation level and error mapping (inside [run]); the driver in
   [solve_robust_validated] owns everything the rungs share. *)
type rung = {
  stage : Robust.Report.stage;
  span_stage : string;  (* the attempt span's "stage" attribute *)
  retry : int option;  (* span attribute of the constrained retries *)
  rung_lambda : float;
  ridge : float option;  (* None: the stage takes no ridge, reported as 0 *)
  degradation : int;
  non_finite : string;  (* Non_finite stage of a non-finite estimate *)
  run : unit -> (estimate, Robust.Error.t * int) result;
      (* the estimate, or the mapped error with the iterations spent *)
}

let solve_robust_validated ~policy ~budget ~lambda problem =
  let attempts = ref [] in
  (* One budget covers the whole cascade: iterations spent by an attempt
     that failed still count against the later stages, and a blown budget
     (non-recoverable by construction) aborts the remaining stages. *)
  let on_iteration = Robust.Budget.on_iteration budget in
  (* Attempt durations are wall-clock via Obs.Clock (never Sys.time, which
     is processor time and stands still while the process waits). *)
  let record ~iters stage lam ridge t0 outcome =
    attempts :=
      {
        Robust.Report.stage;
        lambda = lam;
        ridge;
        seconds = Obs.Clock.now () -. t0;
        iterations = iters;
        outcome;
      }
      :: !attempts
  in
  let problem', repairs =
    if policy.repair_inputs then repair_problem problem else (problem, [])
  in
  let t_validate = Obs.Clock.now () in
  match Problem.validate problem' with
  | Error e ->
    record ~iters:0 Robust.Report.Validation lambda 0.0 t_validate (Error e);
    Error e
  | Ok () ->
    let problem = problem' in
    let repaired = repairs <> [] in
    (* The penalized normal matrix at the entry λ: its scale sets the ridge
       floors, and its condition number (Quality.system; infinite when it
       is not SPD) is both a diagnostic and the trigger for a preemptive
       ridge floor. *)
    let h_scale =
      Float.max 1e-300
        (Mat.max_abs
           (Optimize.Ridge.normal_matrix ~a:(Problem.design problem)
              ~weights:(Problem.weights problem) ~penalty:(Problem.penalty problem) ~lambda))
    in
    let condition = (Quality.system problem ~lambda).kappa in
    Obs.Metrics.set "solver.condition" condition;
    let precondition_ridge =
      if condition > policy.condition_limit then ridge_floor *. h_scale else 0.0
    in
    (* What a singular factorization means to the QP and spline stages. *)
    let ill_conditioned = Robust.Error.Ill_conditioned { cond = condition } in
    let report stage degradation =
      {
        Robust.Report.attempts = List.rev !attempts;
        condition;
        repairs;
        degradation;
        solved_by = stage;
      }
    in
    (* Stage 1: constrained QP with bounded retry — escalating λ boost and
       ridge floor over the regularization strength. *)
    let constrained k =
      let lam = lambda *. (lambda_boost ** float_of_int k) in
      let ridge =
        if k = 0 then precondition_ridge
        else
          Float.max precondition_ridge (ridge_floor *. h_scale)
          *. (ridge_growth ** float_of_int (k - 1))
      in
      {
        stage = Robust.Report.Constrained_qp;
        span_stage = "constrained_qp";
        retry = Some k;
        rung_lambda = lam;
        ridge = Some ridge;
        degradation =
          (if k = 0 && (not repaired) && Float.equal precondition_ridge 0.0 then 0 else 1);
        non_finite = "constrained QP solution";
        run =
          (fun () ->
            match
              solve_constrained ~on_iteration ~ridge ~max_iter:policy.qp_max_iter ~lambda:lam
                problem
            with
            | exception Linalg.Singular _ -> Error (ill_conditioned, 0)
            | est, { Optimize.Qp.status = Optimize.Qp.Converged; _ } -> Ok est
            | est, { Optimize.Qp.status = Optimize.Qp.Stalled; _ } ->
              let iterations = est.qp_iterations in
              Error (Robust.Error.Qp_stalled { iterations }, iterations));
      }
    in
    (* Stage 2: unconstrained smoothing spline at the most-boosted
       regularization. *)
    let unconstrained =
      let lam = lambda *. (lambda_boost ** float_of_int policy.max_retries) in
      let ridge =
        Float.max precondition_ridge
          (ridge_floor *. h_scale
          *. (ridge_growth ** float_of_int (Stdlib.max 0 (policy.max_retries - 1))))
      in
      {
        stage = Robust.Report.Unconstrained;
        span_stage = "unconstrained";
        retry = None;
        rung_lambda = lam;
        ridge = Some ridge;
        degradation = 2;
        non_finite = "unconstrained solution";
        run =
          (fun () ->
            match
              Robust.Budget.check budget;
              solve_unconstrained ~lambda:lam ~ridge problem
            with
            | est -> Ok est
            | exception Linalg.Singular _ -> Error (ill_conditioned, 0));
      }
    in
    (* Stage 3: Richardson–Lucy on the raw grid — positivity-preserving and
       factorization-free, the fallback of last resort. *)
    let richardson_lucy =
      {
        stage = Robust.Report.Richardson_lucy;
        span_stage = "richardson_lucy";
        retry = None;
        rung_lambda = lambda;
        ridge = None;
        degradation = 3;
        non_finite = "Richardson-Lucy";
        run =
          (fun () ->
            let measurements =
              Array.map (fun g -> Float.max 0.0 g) problem.Problem.measurements
            in
            match
              Richardson_lucy.deconvolve ~on_iteration ~iterations:rl_iterations
                problem.Problem.kernel ~measurements ()
            with
            | rl -> Ok (estimate_of_richardson_lucy problem lambda rl)
            | exception Robust.Error.Error e -> Error (e, 0)
            (* lint: allow R2 — last cascade stage: any failure must become a
               typed error for the report; there is no later stage to
               re-raise to *)
            | exception _ -> Error (Robust.Error.Non_finite { stage = "Richardson-Lucy" }, 0));
      }
    in
    let rungs =
      List.init (Stdlib.max 0 (policy.max_retries + 1)) constrained
      @ (if policy.enable_unconstrained then [ unconstrained ] else [])
      @ if policy.enable_richardson_lucy then [ richardson_lucy ] else []
    in
    (* Each attempt is also a span on the observability stream, so a trace
       shows the same story as the Robust.Report — stage, retry index,
       regularization and outcome — with the solver's spans nested inside.
       Only a finite estimate counts as a solve. *)
    let attempt rung =
      Obs.Span.with_ "solver.attempt" (fun sp ->
          Obs.Span.set_str sp "stage" rung.span_stage;
          Option.iter (Obs.Span.set_int sp "retry") rung.retry;
          Obs.Span.set_float sp "lambda" rung.rung_lambda;
          Option.iter (Obs.Span.set_float sp "ridge") rung.ridge;
          let t0 = Obs.Clock.now () in
          let outcome =
            match rung.run () with
            | Ok est when finite_estimate est -> Ok est
            | Ok est ->
              Error (Robust.Error.Non_finite { stage = rung.non_finite }, est.qp_iterations)
            | Error _ as failed -> failed
            | exception Robust.Error.Error e -> Error (e, 0)
          in
          let iters, result =
            match outcome with
            | Ok est -> (est.qp_iterations, Ok ())
            | Error (e, iters) -> (iters, Error e)
          in
          Obs.Span.set_str sp "outcome"
            (match result with Ok () -> "ok" | Error e -> Robust.Error.to_string e);
          record ~iters rung.stage rung.rung_lambda
            (Option.value rung.ridge ~default:0.0) t0 result;
          outcome)
    in
    (* Climb until a rung solves; a non-recoverable error (a blown budget)
       ends the climb with that error. *)
    let rec climb last_error = function
      | [] -> Error last_error
      | rung :: rest -> (
        match attempt rung with
        | Ok est -> Ok (est, report rung.stage rung.degradation)
        | Error (e, _) when Robust.Error.recoverable e -> climb e rest
        | Error (e, _) -> Error e)
    in
    match climb (Robust.Error.Non_finite { stage = "solver" }) rungs with
    | Ok (est, rep) ->
      (* Per-solve quality record for the observatory. The statistics the
         cascade already owns (RSS, constraint counts, attempt path) are
         passed through; κ and edf at the solved λ and the residual tests
         are computed by Quality inside the Diag.enabled guard — with no
         sink this call is one branch. *)
      if Obs.Diag.enabled () then begin
        let cascade =
          String.concat ">"
            (List.map
               (fun (a : Robust.Report.attempt) ->
                 Robust.Report.stage_name a.Robust.Report.stage
                 ^ match a.Robust.Report.outcome with Ok () -> "" | Error _ -> "!")
               rep.Robust.Report.attempts)
        in
        Quality.emit_solve ~problem ~fitted:est.fitted ~lambda:est.lambda ~entry_lambda:lambda
          ~rss:est.data_misfit ~degradation:rep.Robust.Report.degradation
          ~active_positivity:est.active_positivity ~qp_iterations:est.qp_iterations
          ~solved_by:(Robust.Report.stage_name rep.Robust.Report.solved_by)
          ~cascade ()
      end;
      Ok (est, rep)
    | Error _ as failed -> failed

let solve_robust ?(policy = default_policy) ?budget ?(lambda = 1e-4) problem =
  Obs.Span.with_ "solver.solve_robust" (fun sp ->
      Obs.Span.set_float sp "lambda" lambda;
      let budget =
        match budget with Some b -> b | None -> Robust.Budget.unlimited ()
      in
      let result =
        if not (Float.is_finite lambda && lambda >= 0.0) then
          Error
            (Robust.Error.Invalid_input
               { field = "lambda"; why = Printf.sprintf "%g is not finite and >= 0" lambda })
        else solve_robust_validated ~policy ~budget ~lambda problem
      in
      (match result with
      | Ok (_, rep) ->
        Obs.Span.set_str sp "solved_by"
          (Robust.Report.stage_name rep.Robust.Report.solved_by);
        Obs.Span.set_int sp "degradation" rep.Robust.Report.degradation
      | Error e -> Obs.Span.set_str sp "outcome" (Robust.Error.to_string e));
      result)
