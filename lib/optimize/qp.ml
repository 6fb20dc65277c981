open Numerics

type problem = {
  h : Mat.t;
  g : Vec.t;
  c_eq : Mat.t option;
  d_eq : Vec.t option;
  a_ineq : Mat.t option;
  b_ineq : Vec.t option;
}

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

(* KKT system [H Cᵀ; C 0] [x; ν] = [−g; d]. *)
let solve_equality h g ~c ~d =
  let n = h.Mat.rows in
  let m = c.Mat.rows in
  assert (c.Mat.cols = n);
  assert (Array.length d = m);
  let k = n + m in
  let kkt = Mat.zeros k k in
  (* Flat-array copies, as in Linalg.jacobi_eigen: this runs once per
     interior-point pass, where cross-module Mat.get/set calls (each
     boxing a float) cost more than the copy itself. *)
  let kd = kkt.Mat.data and cd = c.Mat.data in
  for i = 0 to n - 1 do
    Array.blit h.Mat.data (i * n) kd (i * k) n
  done;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let cij = cd.((i * n) + j) in
      kd.(((n + i) * k) + j) <- cij;
      kd.((j * k) + n + i) <- cij
    done
  done;
  let rhs = Array.init (n + m) (fun i -> if i < n then -.g.(i) else d.(i - n)) in
  let sol = Linalg.solve_sym_indefinite kkt rhs in
  (Array.sub sol 0 n, Array.sub sol n m)

let stationarity_residual problem x nu z =
  (* ∇f − C_eqᵀν − A_ineqᵀz, scaled by the problem magnitude. *)
  let r = Vec.add (Mat.mv problem.h x) problem.g in
  (match problem.c_eq with Some c -> Vec.axpy (-1.0) (Mat.tmv c nu) r | None -> ());
  (match problem.a_ineq with Some a -> Vec.axpy (-1.0) (Mat.tmv a z) r | None -> ());
  let scale = Float.max 1.0 (Float.max (Vec.norm_inf problem.g) (Mat.max_abs problem.h)) in
  Vec.norm_inf r /. scale

(* Primal-dual path following from an infeasible start, for the inequality case.
   [sp] is the enclosing qp.solve span: each pass of the main loop emits
   one "qp.iteration" point on it, so a trace replays the convergence
   trajectory and the point count equals [solution.iterations]. *)
let solve_interior_point ~sp ~warm_start ~on_iteration ~tol ~max_iter problem a b =
  let n = problem.h.Mat.rows in
  let m_ineq = a.Mat.rows in
  let n_eq = match problem.c_eq with Some c -> c.Mat.rows | None -> 0 in
  let d_eq = match problem.d_eq with Some d -> d | None -> [||] in
  let x = ref (Vec.zeros n) in
  let y = ref (Vec.zeros n_eq) in
  let s = ref (Vec.ones m_ineq) in
  let z = ref (Vec.ones m_ineq) in
  (match warm_start with
  | None -> ()
  | Some w ->
    assert (Array.length w.x0 = n);
    let ax = Mat.mv a w.x0 in
    let hint_scale = Float.max 1.0 (Float.max (Vec.norm_inf b) (Vec.norm_inf ax)) in
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
    (* r_dual = Hx + g − Cᵀy − Aᵀz; r_eq = Cx − d; r_ineq = Ax − s − b. *)
    let r_dual = Vec.add (Mat.mv problem.h !x) problem.g in
    (match problem.c_eq with Some c -> Vec.axpy (-1.0) (Mat.tmv c !y) r_dual | None -> ());
    Vec.axpy (-1.0) (Mat.tmv a !z) r_dual;
    let r_eq =
      match problem.c_eq with
      | Some c -> Vec.sub (Mat.mv c !x) d_eq
      | None -> [||]
    in
    let r_ineq = Vec.sub (Vec.sub (Mat.mv a !x) !s) b in
    (r_dual, r_eq, r_ineq)
  in
  let scale =
    Float.max 1.0
      (Float.max (Vec.norm_inf problem.g)
         (Float.max (Mat.max_abs problem.h) (Vec.norm_inf b)))
  in
  let iterations = ref 0 in
  let converged = ref false in
  (* Scaled worst-case KKT residual — the quantity the convergence test
     compares against [tol], so the telemetry curve mirrors the stop rule. *)
  let kkt_of r_dual r_eq r_ineq =
    Float.max (Vec.norm_inf r_dual)
      (Float.max
         (if n_eq = 0 then 0.0 else Vec.norm_inf r_eq)
         (Vec.norm_inf r_ineq))
    /. scale
  in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    (match on_iteration with Some f -> f !iterations | None -> ());
    let r_dual, r_eq, r_ineq = residuals () in
    let mu = duality_gap () in
    if
      mu < tol *. scale
      && Vec.norm_inf r_dual < tol *. scale
      && (n_eq = 0 || Vec.norm_inf r_eq < tol *. scale)
      && Vec.norm_inf r_ineq < tol *. scale
    then begin
      converged := true;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [ ("kkt_residual", kkt_of r_dual r_eq r_ineq); ("mu", mu) ]
    end
    else begin
      (* Centering parameter: aggressive once residuals are small. *)
      let sigma = if Vec.norm_inf r_ineq < 1e-8 *. scale then 0.1 else 0.3 in
      (* Reduced system over (Δx, Δy):
         (H + AᵀS⁻¹ZA)Δx − CᵀΔy = −r_dual + Aᵀ(σμS⁻¹e − z − S⁻¹Z r_ineq)
         C Δx = −r_eq. *)
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
      let rhs_x = Vec.add (Vec.neg r_dual) rhs_extra in
      let dx, dy =
        match problem.c_eq with
        | None -> (Linalg.solve_spd h_aug rhs_x, [||])
        | Some c ->
          (* We need [H_aug −Cᵀ; C 0][Δx; Δy] = [rhs_x; −r_eq], while
             solve_equality solves [H Cᵀ; C 0][x; ν] = [−g; d]. Passing
             g = −rhs_x, d = −r_eq yields the same Δx with ν = −Δy. *)
          let dx, multipliers = solve_equality h_aug (Vec.neg rhs_x) ~c ~d:(Vec.neg r_eq) in
          (dx, Vec.neg multipliers)
      in
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
      (match problem.c_eq with
      | Some _ -> Vec.axpy alpha_d dy !y
      | None -> ());
      Vec.axpy alpha_p ds !s;
      Vec.axpy alpha_d dz !z;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [
            ("kkt_residual", kkt_of r_dual r_eq r_ineq);
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
    kkt_residual = stationarity_residual problem !x !y !z;
    status = (if !converged then Converged else Stalled);
  }

let solve_dispatch ~sp ~warm_start ~on_iteration ~tol ~max_iter problem =
  let n = problem.h.Mat.rows in
  assert (Array.length problem.g = n);
  (* Direct solves count as one iteration; emit the matching single point
     so every solve's telemetry series has exactly [iterations] entries. *)
  let direct sol =
    (match on_iteration with Some f -> f 1 | None -> ());
    if Obs.Span.enabled () then
      Obs.Span.point sp "qp.iteration" ~iter:1
        [ ("kkt_residual", sol.kkt_residual); ("mu", 0.0) ];
    sol
  in
  match (problem.a_ineq, problem.b_ineq) with
  | None, None | None, Some _ ->
    (* Equality-only (or unconstrained): one KKT solve. *)
    (match (problem.c_eq, problem.d_eq) with
    | Some c, Some d ->
      let x, nu = solve_equality problem.h problem.g ~c ~d in
      direct
        {
          x;
          active = [];
          iterations = 1;
          kkt_residual = stationarity_residual problem x nu [||];
          status = Converged;
        }
    | None, _ ->
      let x = unconstrained problem.h problem.g in
      direct
        {
          x;
          active = [];
          iterations = 1;
          kkt_residual = stationarity_residual problem x [||] [||];
          status = Converged;
        }
    | Some _, None ->
      (* lint: allow R10 R11 -- mismatched optional-constraint pair is caller
         programmer error; the solver cascade builds matched pairs by
         construction, and lib/optimize sits below lib/robust *)
      invalid_arg "Qp.solve: c_eq without d_eq")
  | Some a, Some b ->
    assert (a.Mat.cols = n);
    assert (Array.length b = a.Mat.rows);
    solve_interior_point ~sp ~warm_start ~on_iteration ~tol:(Float.max tol 1e-12) ~max_iter
      problem a b
  | Some _, None ->
    (* lint: allow R10 R11 -- mismatched optional-constraint pair is caller
       programmer error; the solver cascade builds matched pairs by
       construction, and lib/optimize sits below lib/robust *)
    invalid_arg "Qp.solve: a_ineq without b_ineq"

let solve ?warm_start ?on_iteration ?(tol = 1e-9) ?(max_iter = 100) problem =
  Obs.Span.with_ "qp.solve" (fun sp ->
      Obs.Span.set_int sp "n" problem.h.Mat.rows;
      Obs.Span.set_int sp "m_ineq"
        (match problem.a_ineq with Some a -> a.Mat.rows | None -> 0);
      Obs.Span.set_int sp "m_eq" (match problem.c_eq with Some c -> c.Mat.rows | None -> 0);
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
         iteration savings the spectral warm start buys. *)
      if Option.is_some warm_start then
        Obs.Metrics.observe "qp.warm_iterations_per_solve" (float_of_int sol.iterations);
      Obs.Metrics.observe "qp.active_constraints" (float_of_int (List.length sol.active));
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"qp"
             ~values:
               [
                 ("n", float_of_int problem.h.Mat.rows);
                 ( "m_ineq",
                   float_of_int (match problem.a_ineq with Some a -> a.Mat.rows | None -> 0) );
                 ("iterations", float_of_int sol.iterations);
                 ("active", float_of_int (List.length sol.active));
                 ("kkt_residual", sol.kkt_residual);
               ]
             ~tags:
               [ ("status", match sol.status with Converged -> "converged" | Stalled -> "stalled") ]
             ());
      sol)
