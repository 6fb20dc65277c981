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
   (solve_robust's preconditioning ridge) adds ridge·I inside the
   parentheses. *)
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
   estimate so callers can distinguish "converged" from "gave up". The
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

let solve ?budget ?(lambda = 1e-4) problem =
  let on_iteration = Option.map Robust.Budget.on_iteration budget in
  (* The boundary of the typed-error contract for the raw entry point: a
     singular system and a stalled QP become Robust.Error here, so direct
     callers — Batch.solve_gene_result, the bootstrap's replicate
     re-solves — never see a bare Singular or a half-converged iterate. *)
  match solve_constrained ?on_iteration ~lambda problem with
  | est, { Optimize.Qp.status = Optimize.Qp.Converged; _ } -> est
  | _, { Optimize.Qp.status = Optimize.Qp.Stalled; iterations; _ } ->
    Robust.Error.raise_error (Robust.Error.Qp_stalled { iterations })
  | exception Linalg.Singular _ ->
    Robust.Error.raise_error (Robust.Error.Ill_conditioned { cond = Float.infinity })

(* The one direct (Cholesky) path: the smoothing-spline and naive
   baselines. *)
let solve_unconstrained ?(lambda = 1e-4) problem =
  let a, w, omega, h, g_lin = quadratic_pieces problem lambda in
  finish problem lambda a w omega (Optimize.Qp.unconstrained h g_lin) 0 0

let naive problem =
  (* λ chosen only to make the normal matrix invertible; relative to the
     data scale it is ~1e-12, so the fit is effectively unregularized. *)
  let scale = Float.max 1e-300 (Vec.norm_inf problem.Problem.measurements) in
  { (solve_unconstrained ~lambda:(1e-12 *. scale *. scale) problem) with lambda = 0.0 }

(* ---------------- fault tolerance ---------------- *)

type policy = { condition_limit : float; qp_max_iter : int; repair_inputs : bool }

let default_policy =
  {
    (* κ ≈ 1e10 still leaves ~6 significant digits in double precision and
       shows up on routine noisy datasets; only precondition when a direct
       solve is genuinely at risk. *)
    condition_limit = 1e12;
    qp_max_iter = 100;
    repair_inputs = true;
  }

(* The preconditioning ridge, relative to ‖AᵀWA + λΩ‖_max. *)
let ridge_floor = 1e-8

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

(* The one constrained attempt, as a span on the observability stream so a
   trace shows the same story as the Robust.Report — regularization and
   outcome — with the solver's spans nested inside. Only a finite estimate
   counts as a solve. *)
let attempt ~policy ~budget ~lambda ~ridge ~condition problem =
  Obs.Span.with_ "solver.attempt" (fun sp ->
      Obs.Span.set_str sp "stage" "constrained_qp";
      Obs.Span.set_float sp "lambda" lambda;
      Obs.Span.set_float sp "ridge" ridge;
      let outcome =
        match
          solve_constrained ~on_iteration:(Robust.Budget.on_iteration budget) ~ridge
            ~max_iter:policy.qp_max_iter ~lambda problem
        with
        | est, { Optimize.Qp.status = Optimize.Qp.Converged; _ } when finite_estimate est ->
          Ok est
        | _, { Optimize.Qp.status = Optimize.Qp.Converged; _ } ->
          Error (Robust.Error.Non_finite { stage = "constrained QP solution" })
        | est, { Optimize.Qp.status = Optimize.Qp.Stalled; _ } ->
          Error (Robust.Error.Qp_stalled { iterations = est.qp_iterations })
        | exception Linalg.Singular _ -> Error (Robust.Error.Ill_conditioned { cond = condition })
        | exception Robust.Error.Error e -> Error e
      in
      Obs.Span.set_str sp "outcome"
        (match outcome with Ok _ -> "ok" | Error e -> Robust.Error.to_string e);
      outcome)

let solve_robust_validated ~policy ~budget ~lambda problem =
  let ( let* ) = Result.bind in
  let problem, repairs =
    if policy.repair_inputs then repair_problem problem else (problem, [])
  in
  let* () = Problem.validate problem in
  (* The penalized normal matrix at λ: its condition number (Quality.system;
     infinite when it is not SPD) is both a diagnostic and the trigger for
     the preconditioning ridge, whose size its scale sets. *)
  let condition = (Quality.system problem ~lambda).kappa in
  Obs.Metrics.set "solver.condition" condition;
  let ridge =
    if condition > policy.condition_limit then
      ridge_floor
      *. Float.max 1e-300
           (Mat.max_abs
              (Optimize.Ridge.normal_matrix ~a:(Problem.design problem)
                 ~weights:(Problem.weights problem) ~penalty:(Problem.penalty problem) ~lambda))
    else 0.0
  in
  (* The attempt's duration is wall-clock via Obs.Clock (never Sys.time,
     which is processor time and stands still while the process waits). *)
  let t0 = Obs.Clock.now () in
  let* est = attempt ~policy ~budget ~lambda ~ridge ~condition problem in
  let seconds = Obs.Clock.now () -. t0 in
  let degradation = if repairs = [] && Float.equal ridge 0.0 then 0 else 1 in
  (* Per-solve quality record for the observatory: κ and edf at the solved
     λ and the residual tests are computed by Quality inside its
     Diag.enabled guard — with no sink this call is one branch. *)
  Quality.emit_solve ~problem ~fitted:est.fitted ~lambda:est.lambda ~entry_lambda:lambda
    ~rss:est.data_misfit ~degradation ~active_positivity:est.active_positivity
    ~qp_iterations:est.qp_iterations ();
  Ok
    ( est,
      {
        Robust.Report.attempts =
          [
            {
              Robust.Report.stage = Robust.Report.Constrained_qp;
              lambda;
              ridge;
              seconds;
              iterations = est.qp_iterations;
              outcome = Ok ();
            };
          ];
        condition;
        repairs;
        degradation;
      } )

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
      | Ok (_, rep) -> Obs.Span.set_int sp "degradation" rep.Robust.Report.degradation
      | Error e -> Obs.Span.set_str sp "outcome" (Robust.Error.to_string e));
      result)
