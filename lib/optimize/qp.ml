open Numerics

type problem = { h : Mat.t; g : Vec.t; ineq : (Mat.t * Vec.t) option }

type status = Converged | Stalled

type solution = {
  x : Vec.t;
  active : int list;
  iterations : int;
  kkt_residual : float;
  status : status;
}

type warm_start = { x0 : Vec.t; active0 : int list }

let unconstrained h g = Linalg.solve_spd h (Vec.neg g)

let stationarity_residual problem x z =
  (* ∇f − Aᵀz, scaled by the problem magnitude. *)
  let r = Vec.add (Mat.mv problem.h x) problem.g in
  (match problem.ineq with Some (a, _) -> Vec.axpy (-1.0) (Mat.tmv a z) r | None -> ());
  let scale = Float.max 1.0 (Float.max (Vec.norm_inf problem.g) (Mat.max_abs problem.h)) in
  Vec.norm_inf r /. scale

(* Primal-dual path following from an infeasible start.
   [sp] is the enclosing qp.solve span: each pass of the main loop emits
   one "qp.iteration" point on it, so a trace replays the convergence
   trajectory and the point count equals [solution.iterations]. *)
let solve_interior_point ~sp ~warm_start ~on_iteration ~tol ~max_iter problem a b =
  let n = problem.h.Mat.rows in
  let m_ineq = a.Mat.rows in
  let x = ref (Vec.zeros n) in
  let s = ref (Vec.ones m_ineq) in
  let z = ref (Vec.ones m_ineq) in
  (* Feasibility is measured against max(1, ‖b‖∞, ‖Ax‖∞), the scale of the
     constrained quantities themselves: a huge H or g (weights 1/σ² near
     1e300) must not let a badly infeasible point pass. *)
  let b_norm = Vec.norm_inf b in
  let primal_scale ax = Float.max 1.0 (Float.max b_norm (Vec.norm_inf ax)) in
  (match warm_start with
  | None -> ()
  | Some w ->
    assert (Array.length w.x0 = n);
    let ax = Mat.mv a w.x0 in
    let hint_scale = primal_scale ax in
    let violation = ref 0.0 in
    for i = 0 to m_ineq - 1 do
      violation := Float.max !violation (b.(i) -. ax.(i))
    done;
    (* Adopt only nearly feasible hints (ringing-level violations, ≤10% of
       the prediction scale). A badly infeasible x0 would pair tiny slacks
       with a large primal residual — the fraction-to-boundary rule then
       crawls, and the "warm" start costs more passes than the cold one it
       replaces. Rejection keeps the cold defaults, so a poor hint can
       never make a solve worse. *)
    if !violation <= 0.1 *. hint_scale then begin
      Obs.Span.set_bool sp "warm_adopted" true;
      (* Start at the supplied point with slacks read off it, floored away
         from the boundary, and duals on the central path at μ₀ = 0.1 —
         one decade into the cold start's μ schedule, far enough that a
         good hint saves the early centering passes, conservative enough
         that a mediocre one costs nothing. *)
      x := Vec.copy w.x0;
      let slack_floor = 1e-2 *. hint_scale in
      let mu0 = 1e-1 in
      for i = 0 to m_ineq - 1 do
        !s.(i) <- Float.max (ax.(i) -. b.(i)) slack_floor;
        !z.(i) <- mu0 /. !s.(i)
      done;
      (* Constraints the caller believes are active get a unit dual so the
         first step does not immediately walk off the active face. *)
      List.iter
        (fun i -> if i >= 0 && i < m_ineq then !z.(i) <- Float.max !z.(i) 1.0)
        w.active0
    end);
  let mf = float_of_int m_ineq in
  let duality_gap () = Vec.dot !s !z /. mf in
  let residuals () =
    (* r_dual = Hx + g − Aᵀz; r_ineq = Ax − s − b. [ax] scales the
       feasibility test. *)
    let r_dual = Vec.add (Mat.mv problem.h !x) problem.g in
    Vec.axpy (-1.0) (Mat.tmv a !z) r_dual;
    let ax = Mat.mv a !x in
    (r_dual, Vec.sub (Vec.sub ax !s) b, ax)
  in
  let scale =
    Float.max 1.0
      (Float.max (Vec.norm_inf problem.g) (Float.max (Mat.max_abs problem.h) b_norm))
  in
  let iterations = ref 0 in
  let converged = ref false in
  (* Scaled worst-case KKT residual — the quantity the convergence test
     compares against [tol], so the telemetry curve mirrors the stop rule. *)
  let kkt_of r_dual r_ineq ax =
    Float.max (Vec.norm_inf r_dual /. scale) (Vec.norm_inf r_ineq /. primal_scale ax)
  in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    (match on_iteration with Some f -> f !iterations | None -> ());
    let r_dual, r_ineq, ax = residuals () in
    let mu = duality_gap () in
    if
      mu < tol *. scale
      && Vec.norm_inf r_dual < tol *. scale
      && Vec.norm_inf r_ineq < tol *. primal_scale ax
    then begin
      converged := true;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [ ("kkt_residual", kkt_of r_dual r_ineq ax); ("mu", mu) ]
    end
    else begin
      (* Centering parameter: aggressive once residuals are small. *)
      let sigma = if Vec.norm_inf r_ineq < 1e-8 *. scale then 0.1 else 0.3 in
      (* Reduced system over Δx:
         (H + AᵀS⁻¹ZA)Δx = −r_dual + Aᵀ(σμS⁻¹e − z − S⁻¹Z r_ineq). *)
      let s_inv_z = Array.init m_ineq (fun i -> !z.(i) /. !s.(i)) in
      let h_aug = Mat.copy problem.h in
      (* Indexes the backing arrays directly (no row copy, no boxed
         Mat.get/set per entry); same products in the same order. *)
      let hd = h_aug.Mat.data and ad = a.Mat.data in
      for i = 0 to m_ineq - 1 do
        let arow = i * n in
        let w = s_inv_z.(i) in
        for p = 0 to n - 1 do
          let a_ip = ad.(arow + p) in
          if not (Float.equal a_ip 0.0) then begin
            let hrow = p * n in
            for q = 0 to n - 1 do
              hd.(hrow + q) <- hd.(hrow + q) +. (w *. a_ip *. ad.(arow + q))
            done
          end
        done
      done;
      let rhs_extra =
        (* Aᵀ(σμS⁻¹e − z − S⁻¹Z·r_ineq) *)
        let v =
          Array.init m_ineq (fun i ->
              (sigma *. mu /. !s.(i)) -. !z.(i) -. (s_inv_z.(i) *. r_ineq.(i)))
        in
        Mat.tmv a v
      in
      let dx = Linalg.solve_spd h_aug (Vec.add (Vec.neg r_dual) rhs_extra) in
      let ds = Vec.add (Mat.mv a dx) r_ineq in
      let dz =
        Array.init m_ineq (fun i ->
            ((sigma *. mu) -. (!z.(i) *. !s.(i)) -. (!z.(i) *. ds.(i))) /. !s.(i))
      in
      (* Fraction-to-boundary step sizes. *)
      let step_for v dv =
        let alpha = ref 1.0 in
        for i = 0 to Array.length v - 1 do
          if dv.(i) < 0.0 then alpha := Float.min !alpha (-0.995 *. v.(i) /. dv.(i))
        done;
        !alpha
      in
      let alpha_p = step_for !s ds in
      let alpha_d = step_for !z dz in
      Vec.axpy alpha_p dx !x;
      Vec.axpy alpha_p ds !s;
      Vec.axpy alpha_d dz !z;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [
            ("kkt_residual", kkt_of r_dual r_ineq ax);
            ("mu", mu);
            ("alpha_p", alpha_p);
            ("alpha_d", alpha_d);
          ]
    end
  done;
  let active =
    let threshold = sqrt tol *. Float.max 1.0 (Vec.norm_inf !s) in
    List.filter (fun i -> !s.(i) < threshold) (List.init m_ineq (fun i -> i))
  in
  {
    x = !x;
    active;
    iterations = !iterations;
    kkt_residual = stationarity_residual problem !x !z;
    status = (if !converged then Converged else Stalled);
  }

let solve_dispatch ~sp ~warm_start ~on_iteration ~tol ~max_iter problem =
  let n = problem.h.Mat.rows in
  assert (Array.length problem.g = n);
  match problem.ineq with
  | Some (a, b) ->
    assert (a.Mat.cols = n);
    assert (Array.length b = a.Mat.rows);
    solve_interior_point ~sp ~warm_start ~on_iteration ~tol:(Float.max tol 1e-12) ~max_iter
      problem a b
  | None ->
    (* One direct solve, counted as one iteration with the matching single
       point, so every solve's telemetry series has exactly [iterations]
       entries. *)
    (match on_iteration with Some f -> f 1 | None -> ());
    let x = unconstrained problem.h problem.g in
    let kkt_residual = stationarity_residual problem x [||] in
    if Obs.Span.enabled () then
      Obs.Span.point sp "qp.iteration" ~iter:1 [ ("kkt_residual", kkt_residual); ("mu", 0.0) ];
    { x; active = []; iterations = 1; kkt_residual; status = Converged }

let solve ?warm_start ?on_iteration ?(tol = 1e-9) ?(max_iter = 100) problem =
  let m_ineq = match problem.ineq with Some (a, _) -> a.Mat.rows | None -> 0 in
  Obs.Span.with_ "qp.solve" (fun sp ->
      Obs.Span.set_int sp "n" problem.h.Mat.rows;
      Obs.Span.set_int sp "m_ineq" m_ineq;
      Obs.Span.set_bool sp "warm_start" (Option.is_some warm_start);
      if Option.is_some warm_start then Obs.Metrics.incr "qp.warm_starts";
      let sol = solve_dispatch ~sp ~warm_start ~on_iteration ~tol ~max_iter problem in
      Obs.Span.set_int sp "iterations" sol.iterations;
      Obs.Span.set_int sp "active" (List.length sol.active);
      Obs.Span.set_float sp "kkt_residual" sol.kkt_residual;
      Obs.Span.set_str sp "status"
        (match sol.status with Converged -> "converged" | Stalled -> "stalled");
      Obs.Metrics.incr "qp.solves";
      Obs.Metrics.incr ~by:(float_of_int sol.iterations) "qp.iterations";
      Obs.Metrics.observe "qp.iterations_per_solve" (float_of_int sol.iterations);
      (* Separate distribution for warm-started solves: comparing its
         quantiles against qp.iterations_per_solve quantifies the
         iteration savings the warm start buys. *)
      if Option.is_some warm_start then
        Obs.Metrics.observe "qp.warm_iterations_per_solve" (float_of_int sol.iterations);
      Obs.Metrics.observe "qp.active_constraints" (float_of_int (List.length sol.active));
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"qp"
             ~values:
               [
                 ("n", float_of_int problem.h.Mat.rows);
                 ("m_ineq", float_of_int m_ineq);
                 ("iterations", float_of_int sol.iterations);
                 ("active", float_of_int (List.length sol.active));
                 ("kkt_residual", sol.kkt_residual);
               ]
             ~tags:
               [ ("status", match sol.status with Converged -> "converged" | Stalled -> "stalled") ]
             ());
      sol)
