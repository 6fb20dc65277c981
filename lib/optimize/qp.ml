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

let unconstrained h g = Linalg.solve_spd h (Vec.neg g)

(* A row is dependent on the active set when its component outside their
   span, in J coordinates, is this small relative to its whole length:
   ‖d₂‖² ≤ 1e-14‖d‖². Such a row is never divided by; it forces a drop. *)
let dependence_tol = 1e-14

(* Goldfarb–Idnani dual active-set method (Math. Programming 27, 1983).

   State: the primal point [x], the active rows [act.(0..iq-1)] with their
   multipliers [u], and the factors J = L⁻ᵀQ (H = LLᵀ) and R with
   Jᵀ·[active rows]ᵀ = [R; 0]. [jt] holds Jᵀ row-major, so column j of J
   is the contiguous row j of [jt]; [r] holds R, upper triangular, in an
   n × n block. Both are updated by Givens rotations on adds and drops.

   One pass is one unit of [iterations]: pass 1 is the unconstrained
   minimizer plus the first scan, every later pass one add or one drop.
   [sp] is the enclosing qp.solve span: each pass emits one "qp.iteration"
   point on it, so the point count equals [solution.iterations]. *)
let solve_dual_active_set ~sp ~on_iteration ~tol ~max_iter problem a b =
  let n = problem.h.Mat.rows in
  let m = Array.length b in
  let ad = a.Mat.data in
  let iterations = ref 1 in
  on_iteration 1;
  let l = Linalg.cholesky_factor problem.h in
  let x = Linalg.cholesky_solve l (Vec.neg problem.g) in
  let act = Array.make n 0 and u = Array.make n 0.0 and iq = ref 0 in
  let is_active = Array.make m false in
  let row_dot i v =
    let acc = ref 0.0 and row = i * n in
    for k = 0 to n - 1 do
      acc := !acc +. (ad.(row + k) *. v.(k))
    done;
    !acc
  in
  (* The scan: the non-active row with the lowest slack aᵢᵀx − bᵢ (ties to
     the lowest index), and its violation scaled by max(1, ‖b‖∞, ‖Ax‖∞).
     The row is [-1] when that slack is at least −tol·scale. *)
  let b_norm = Vec.norm_inf b in
  let scan () =
    let p = ref (-1) and lowest = ref Float.infinity and ax_norm = ref 0.0 in
    for i = 0 to m - 1 do
      let ax = row_dot i x in
      ax_norm := Float.max !ax_norm (Float.abs ax);
      let s = ax -. b.(i) in
      if (not is_active.(i)) && s < !lowest then begin
        p := i;
        lowest := s
      end
    done;
    let scale = Float.max 1.0 (Float.max b_norm !ax_norm) in
    let violation = Float.max 0.0 (-. !lowest) /. scale in
    ((if violation > tol then !p else -1), violation)
  in
  let point violation =
    if Obs.Span.enabled () then
      Obs.Span.point sp "qp.iteration" ~iter:!iterations
        [ ("max_violation", violation); ("active", float_of_int !iq) ]
  in
  let p0, violation0 = scan () in
  point violation0;
  let p = ref p0 in
  (* The multiplier of the row being added, and whether the rows admit no
     feasible point (a dependent row with no active multiplier to drop). *)
  let up = ref 0.0 and infeasible = ref false in
  if !p >= 0 then begin
    (* Jᵀ = L⁻¹, one column per unit vector; built only when the
       unconstrained minimizer violates a row. *)
    let jt = Array.make (n * n) 0.0 in
    for k = 0 to n - 1 do
      let e = Array.make n 0.0 in
      e.(k) <- 1.0;
      let col = Linalg.lower_solve l e in
      for j = k to n - 1 do
        jt.((j * n) + k) <- col.(j)
      done
    done;
    let r = Array.make (n * n) 0.0 in
    let d = Array.make n 0.0 and z = Array.make n 0.0 and rv = Array.make n 0.0 in
    (* One Givens reflection on rows [i0] and [i0 + 1] of a row-major
       block, over columns [lo..hi]; (cc, ss) is normalized with cc ≥ 0. *)
    let rotate block ~i0 ~lo ~hi cc ss =
      let xny = ss /. (1.0 +. cc) and r0 = i0 * n and r1 = (i0 + 1) * n in
      for k = lo to hi do
        let t1 = block.(r0 + k) and t2 = block.(r1 + k) in
        let v = (t1 *. cc) +. (t2 *. ss) in
        block.(r0 + k) <- v;
        block.(r1 + k) <- (xny *. (t1 +. v)) -. t2
      done
    in
    (* Normalize the pair (c, s) for a reflection that maps it to (±h, 0);
       [None] when both are zero. *)
    let reflection c s =
      let h = Float.hypot c s in
      if h > 0.0 then
        let c = c /. h and s = s /. h in
        if c < 0.0 then Some (-.h, -.c, -.s) else Some (h, c, s)
      else None
    in
    let add i =
      (* Zero d(iq+1..n−1) into d(iq), rotating the matching columns of J;
         the new column of R is then d(0..iq). *)
      for j = n - 1 downto !iq + 1 do
        match reflection d.(j - 1) d.(j) with
        | Some (h, cc, ss) ->
          d.(j - 1) <- h;
          d.(j) <- 0.0;
          rotate jt ~i0:(j - 1) ~lo:0 ~hi:(n - 1) cc ss
        | None -> ()
      done;
      for k = 0 to !iq do
        r.((k * n) + !iq) <- d.(k)
      done;
      act.(!iq) <- i;
      u.(!iq) <- !up;
      is_active.(i) <- true;
      incr iq;
      up := 0.0
    in
    let drop q =
      (* Remove active position [q]: shift the later columns of R left,
         then restore its triangle (and rotate J's columns to match). *)
      is_active.(act.(q)) <- false;
      for c = q to !iq - 2 do
        act.(c) <- act.(c + 1);
        u.(c) <- u.(c + 1);
        for k = 0 to !iq - 1 do
          r.((k * n) + c) <- r.((k * n) + c + 1)
        done
      done;
      decr iq;
      for j = q to !iq - 1 do
        match reflection r.((j * n) + j) r.(((j + 1) * n) + j) with
        | Some (h, cc, ss) ->
          r.((j * n) + j) <- h;
          r.(((j + 1) * n) + j) <- 0.0;
          rotate r ~i0:j ~lo:(j + 1) ~hi:(!iq - 1) cc ss;
          rotate jt ~i0:j ~lo:0 ~hi:(n - 1) cc ss
        | None -> ()
      done
    in
    let slack_p = ref (row_dot !p x -. b.(!p)) in
    while !p >= 0 && (not !infeasible) && !iterations < max_iter do
      incr iterations;
      on_iteration !iterations;
      let pr = !p * n in
      (* d = Jᵀaₚ, split at the active count into d₁ and d₂. *)
      let d_all = ref 0.0 and d2 = ref 0.0 in
      for j = 0 to n - 1 do
        let acc = ref 0.0 and row = j * n in
        for k = 0 to n - 1 do
          acc := !acc +. (jt.(row + k) *. ad.(pr + k))
        done;
        d.(j) <- !acc;
        d_all := !d_all +. (!acc *. !acc);
        if j >= !iq then d2 := !d2 +. (!acc *. !acc)
      done;
      let dependent = !d2 <= dependence_tol *. !d_all in
      (* Dual direction rv = R⁻¹d₁, and the partial step t1: the largest
         step before an active multiplier turns negative. *)
      for i = !iq - 1 downto 0 do
        let acc = ref d.(i) in
        for j = i + 1 to !iq - 1 do
          acc := !acc -. (r.((i * n) + j) *. rv.(j))
        done;
        rv.(i) <- !acc /. r.((i * n) + i)
      done;
      let t1 = ref Float.infinity and blocking = ref (-1) in
      for k = 0 to !iq - 1 do
        if rv.(k) > 0.0 && u.(k) /. rv.(k) < !t1 then begin
          t1 := u.(k) /. rv.(k);
          blocking := k
        end
      done;
      (* Full step t2: the step along z = J₂d₂ that makes row p hold with
         equality (zᵀaₚ = ‖d₂‖²). *)
      let t2 = if dependent then Float.infinity else -. !slack_p /. !d2 in
      if Float.equal !t1 Float.infinity && Float.equal t2 Float.infinity then begin
        infeasible := true;
        if Obs.Span.enabled () then point (snd (scan ()))
      end
      else begin
        let t = Float.min !t1 t2 in
        if not dependent then begin
          for k = 0 to n - 1 do
            let acc = ref 0.0 in
            for j = !iq to n - 1 do
              acc := !acc +. (jt.((j * n) + k) *. d.(j))
            done;
            z.(k) <- !acc
          done;
          Vec.axpy t z x
        end;
        for k = 0 to !iq - 1 do
          u.(k) <- u.(k) -. (t *. rv.(k))
        done;
        up := !up +. t;
        if t2 <= !t1 then begin
          add !p;
          let next, violation = scan () in
          p := next;
          point violation
        end
        else begin
          drop !blocking;
          (* Row p is still the one being added; this scan only feeds the
             pass's telemetry point. *)
          if Obs.Span.enabled () then point (snd (scan ()))
        end;
        if !p >= 0 then slack_p := row_dot !p x -. b.(!p)
      end
    done
  end;
  (* Stationarity Hx + g − Σ uᵢaᵢ over the exact multipliers, including a
     row still being added when the cycle guard fired. *)
  let residual = Vec.add (Mat.mv problem.h x) problem.g in
  let subtract i ui =
    let row = i * n in
    for k = 0 to n - 1 do
      residual.(k) <- residual.(k) -. (ui *. ad.(row + k))
    done
  in
  for k = 0 to !iq - 1 do
    subtract act.(k) u.(k)
  done;
  if !p >= 0 then subtract !p !up;
  let scale = Float.max 1.0 (Float.max (Vec.norm_inf problem.g) (Mat.max_abs problem.h)) in
  {
    x;
    active = List.sort Int.compare (Array.to_list (Array.sub act 0 !iq));
    iterations = !iterations;
    kkt_residual = Vec.norm_inf residual /. scale;
    status = (if !p < 0 then Converged else Stalled);
  }

let solve ?(on_iteration = ignore) ?(tol = 1e-9) ?max_iter problem =
  let n = problem.h.Mat.rows in
  assert (Array.length problem.g = n);
  let a, b =
    match problem.ineq with
    | Some (a, b) ->
      assert (a.Mat.cols = n);
      assert (Array.length b = a.Mat.rows);
      (a, b)
    | None -> (Mat.zeros 0 n, [||])
  in
  let m_ineq = Array.length b in
  (* The cycle guard, sized to the problem: each pass adds at most one
     row. *)
  let max_iter = Option.value max_iter ~default:(2 * (n + m_ineq)) in
  Obs.Span.with_ "qp.solve" (fun sp ->
      Obs.Span.set_int sp "n" n;
      Obs.Span.set_int sp "m_ineq" m_ineq;
      (* The floor keeps rounding-level slacks of rows dependent on the
         active set from counting as violations. *)
      let sol =
        solve_dual_active_set ~sp ~on_iteration ~tol:(Float.max tol 1e-12) ~max_iter problem a b
      in
      Obs.Span.set_int sp "iterations" sol.iterations;
      Obs.Span.set_int sp "active" (List.length sol.active);
      Obs.Span.set_float sp "kkt_residual" sol.kkt_residual;
      Obs.Span.set_str sp "status"
        (match sol.status with Converged -> "converged" | Stalled -> "stalled");
      Obs.Metrics.incr "qp.solves";
      Obs.Metrics.incr ~by:(float_of_int sol.iterations) "qp.iterations";
      Obs.Metrics.observe "qp.iterations_per_solve" (float_of_int sol.iterations);
      Obs.Metrics.observe "qp.active_constraints" (float_of_int (List.length sol.active));
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"qp"
             ~values:
               [
                 ("n", float_of_int n);
                 ("m_ineq", float_of_int m_ineq);
                 ("iterations", float_of_int sol.iterations);
                 ("active", float_of_int (List.length sol.active));
                 ("kkt_residual", sol.kkt_residual);
               ]
             ~tags:
               [ ("status", match sol.status with Converged -> "converged" | Stalled -> "stalled") ]
             ());
      sol)
