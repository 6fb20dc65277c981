open Numerics

type curve_point = { lambda : float; score : float }

(* A plain value built at module initialisation, so batch genes on
   different domains never race to force a deferred value (OCaml 5 raises
   [Undefined] in the loser of such a race). *)
let default_grid = Optimize.Cross_validation.log_lambda_grid ~lo:(-7.0) ~hi:2.0 ~count:25

(* Robust GCV (Cummins, Filloon & Nychka): inflate the effective degrees of
   freedom by gamma in the denominator. Plain GCV (gamma = 1) is known to
   occasionally collapse to a near-interpolating lambda when the number of
   measurements is small (here Nm ~ 13); gamma ~ 1.4 removes that failure
   mode at negligible cost in the well-behaved cases. *)
let robust_gamma = 1.4

let usable_lambda lambda = Float.is_finite lambda && lambda >= 0.0

(* A selector argument that no candidate can fix: a typed error at the
   entry point rather than an assertion deep inside the sweep. *)
let invalid ~field why = Robust.Error.raise_error (Robust.Error.Invalid_input { field; why })

(* Candidate costs must never let a NaN/Inf win the argmin (NaN compares
   false against everything, so a NaN first candidate would otherwise stick
   as "best"): non-finite scores, non-finite lambda points and candidates
   whose fit blows up are all mapped to +inf, which loses to any finite
   score. *)
let sanitize score = if Float.is_finite score then score else Float.infinity

let guarded_score lambda score_of =
  Obs.Span.with_ "lambda.candidate" (fun sp ->
      Obs.Span.set_float sp "lambda" lambda;
      let score =
        if not (usable_lambda lambda) then Float.infinity
        else
          match score_of lambda with
          | score -> sanitize score
          | exception Linalg.Singular _ -> Float.infinity
      in
      Obs.Span.set_float sp "score" score;
      score)

let selection_failed ~selector =
  Robust.Error.raise_error
    (Robust.Error.Non_finite { stage = "lambda selection (" ^ selector ^ ")" })

let fail_if_all_non_finite ~selector best_score =
  if not (Float.is_finite best_score) then selection_failed ~selector

(* The spectral factorization is the only route to the candidate scores.
   Unless passed in, it is formed here; when even the anchored Gram side
   cannot be factored, no candidate can be scored, which is reported right
   here as the selector's typed error. *)
let factorization ~selector ?spectral problem =
  let fact =
    match spectral with
    | Some fact -> fact
    | None -> (
      match Problem.factorize problem with
      | fact -> fact
      | exception Linalg.Singular _ -> selection_failed ~selector)
  in
  ( fact,
    Optimize.Spectral.project_data fact ~a:(Problem.design problem)
      ~weights:(Problem.weights problem) ~b:problem.Problem.measurements )

(* Sequential sweep: each candidate costs O(n), far below the pool's
   dispatch overhead, so fanning out would only slow it down. The argmin
   is strict < in index order, so the first of tied winners is chosen. *)
let sweep ~lambdas ~score_of =
  if Array.length lambdas = 0 then invalid ~field:"lambdas" "the candidate grid is empty";
  let curve =
    Array.map (fun lambda -> { lambda; score = guarded_score lambda score_of }) lambdas
  in
  let best = ref curve.(0) in
  Array.iter (fun p -> if p.score < !best.score then best := p) curve;
  (!best, curve)

let gcv_score ~n ~rss ~edf =
  let denom = n -. (robust_gamma *. edf) in
  if denom <= 0.0 then Float.infinity else n *. rss /. (denom *. denom)

let gcv ?spectral problem ~lambdas =
  let fact, proj = factorization ~selector:"GCV" ?spectral problem in
  let n = float_of_int (Problem.num_measurements problem) in
  (* The Singular catch sits inside [score_of] itself, at the raise's
     nearest boundary — a candidate whose shifted system is singular
     scores as infinitely bad. *)
  let score_of lambda =
    match Optimize.Spectral.evaluate fact proj ~lambda with
    | exception Linalg.Singular _ -> Float.infinity
    | s -> gcv_score ~n ~rss:s.Optimize.Spectral.rss ~edf:s.Optimize.Spectral.edf
  in
  let best, curve = sweep ~lambdas ~score_of in
  fail_if_all_non_finite ~selector:"GCV" best.score;
  (best.lambda, curve)

let submatrix (a : Mat.t) rows =
  Mat.init (Array.length rows) a.Mat.cols (fun i j -> Mat.get a rows.(i) j)

let subvec rows v = Array.map (fun i -> v.(i)) rows

(* k-fold: the folds are fixed across the sweep, so each training
   subsystem gets exactly one anchored factorization, reused by every λ —
   candidates then cost one O(n²) spectral solution plus the held-out
   prediction error per fold. Training Gram matrices are structurally
   rank-deficient here (a fold's training set is smaller than the basis),
   which is precisely what the anchored factorization exists for. *)
let kfold problem ~rng ~k ~lambdas =
  let a = Problem.design problem in
  let w = Problem.weights problem in
  let omega = Problem.penalty problem in
  let b = problem.Problem.measurements in
  let n = Array.length b in
  if k < 2 || k > n then
    invalid ~field:"k"
      (Printf.sprintf "%d-fold cross-validation needs 2 <= k <= %d measurements" k n);
  (* One [split] of the caller's stream fixes the fold assignment for the
     whole sweep, so every λ sees the same folds. *)
  let folds = Optimize.Cross_validation.kfold_indices (Rng.split rng) ~n ~k in
  let per_fold =
    Array.map
      (fun test ->
        let in_test = Array.make n false in
        Array.iter (fun i -> in_test.(i) <- true) test;
        let train =
          Array.of_list (List.filter (fun i -> not in_test.(i)) (List.init n (fun i -> i)))
        in
        let a_train = submatrix a train in
        let w_train = subvec train w in
        (* As in [factorization]: an unfactorable fold is the selector's typed
           error, raised at the factorization. *)
        let fact =
          match
            Optimize.Spectral.factorize_problem ~a:a_train ~weights:w_train ~penalty:omega
          with
          | fact -> fact
          | exception Linalg.Singular _ -> selection_failed ~selector:"k-fold CV"
        in
        let proj =
          Optimize.Spectral.project_data fact ~a:a_train ~weights:w_train ~b:(subvec train b)
        in
        (fact, proj, test))
      folds
  in
  (* Singular handled at the nearest boundary: a fold whose shifted system
     degenerates scores the candidate as infinitely bad. *)
  let score_of lambda =
    match
      let total = ref 0.0 in
      Array.iter
        (fun (fact, proj, test) ->
          let x = Optimize.Spectral.solution fact proj ~lambda in
          let acc = ref 0.0 in
          Array.iter
            (fun m ->
              let predicted = Vec.dot (Mat.row a m) x in
              let r = b.(m) -. predicted in
              acc := !acc +. (w.(m) *. r *. r))
            test;
          total := !total +. (!acc /. float_of_int (Array.length test)))
        per_fold;
      !total /. float_of_int k
    with
    | total -> total
    | exception Linalg.Singular _ -> Float.infinity
  in
  let best, curve = sweep ~lambdas ~score_of in
  fail_if_all_non_finite ~selector:"k-fold CV" best.score;
  (best.lambda, curve)

(* L-curve corner search over the (log misfit, log roughness) points. *)
let lcurve_corner ~lambdas points =
  let n_l = Array.length lambdas in
  if not (Array.exists Option.is_some points) then selection_failed ~selector:"L-curve";
  (* Discrete curvature via the circumscribed-circle formula on successive
     triples. Where the curve saturates (λ → 0 or λ → ∞) consecutive points
     nearly coincide and the circumradius collapses, faking a huge
     curvature — ignore triples with degenerate segments. *)
  let min_segment = 5e-2 in
  let curvature i =
    match (points.(i - 1), points.(i), points.(i + 1)) with
    | Some (x0, y0), Some (x1, y1), Some (x2, y2) ->
      let area2 = ((x1 -. x0) *. (y2 -. y0)) -. ((x2 -. x0) *. (y1 -. y0)) in
      let d01 = Float.hypot (x1 -. x0) (y1 -. y0) in
      let d12 = Float.hypot (x2 -. x1) (y2 -. y1) in
      let d02 = Float.hypot (x2 -. x0) (y2 -. y0) in
      if d01 < min_segment || d12 < min_segment || Float.equal d02 0.0 then 0.0
      else 2.0 *. Float.abs area2 /. (d01 *. d12 *. d02)
    | _ -> 0.0
  in
  let best = ref 1 in
  let curve =
    Array.init n_l (fun i ->
        let k = if i = 0 || i = n_l - 1 then 0.0 else curvature i in
        { lambda = lambdas.(i); score = -.k })
  in
  for i = 2 to n_l - 2 do
    if curve.(i).score < curve.(!best).score then best := i
  done;
  (lambdas.(!best), curve)

(* L-curve: evaluate misfit/roughness along the grid and find the corner —
   the point of maximum discrete curvature of
   (log misfit(λ), log roughness(λ)) (Hansen). Both coordinates are read
   off the factorization in O(n) per candidate without ever forming a
   solution. Candidates whose evaluation fails or yields non-finite
   coordinates are dropped (None): they take no part in the curvature
   search. *)
let lcurve ?spectral problem ~lambdas =
  if Array.length lambdas < 3 then
    invalid ~field:"lambdas"
      (Printf.sprintf "the L-curve needs at least 3 candidates, got %d" (Array.length lambdas));
  let fact, proj = factorization ~selector:"L-curve" ?spectral problem in
  let points =
    Array.map
      (fun lambda ->
        Obs.Span.with_ "lambda.candidate" (fun sp ->
            Obs.Span.set_float sp "lambda" lambda;
            if not (usable_lambda lambda) then None
            else
              match Optimize.Spectral.evaluate fact proj ~lambda with
              | exception Linalg.Singular _ -> None
              | s ->
                Obs.Span.set_float sp "misfit" s.Optimize.Spectral.rss;
                Obs.Span.set_float sp "roughness" s.Optimize.Spectral.roughness;
                let x = log (Float.max 1e-300 s.Optimize.Spectral.rss) in
                let y = log (Float.max 1e-300 s.Optimize.Spectral.roughness) in
                if Float.is_finite x && Float.is_finite y then Some (x, y) else None))
      lambdas
  in
  lcurve_corner ~lambdas points

let method_name = function
  | `Fixed _ -> "fixed"
  | `Gcv -> "gcv"
  | `Lcurve -> "lcurve"
  | `Kfold _ -> "kfold"

let select problem ~method_ ?rng ?lambdas ?spectral () =
  let lambdas = match lambdas with Some l -> l | None -> default_grid in
  Obs.Span.with_ "lambda.select" (fun sp ->
      Obs.Span.set_str sp "method" (method_name method_);
      Obs.Span.set_int sp "candidates" (Array.length lambdas);
      let chosen, curve =
        match method_ with
        | `Fixed lambda ->
          if usable_lambda lambda then (lambda, [||])
          else
            Robust.Error.raise_error
              (Robust.Error.Invalid_input
                 { field = "lambda"; why = Printf.sprintf "fixed lambda %g is not usable" lambda })
        | `Gcv -> gcv ?spectral problem ~lambdas
        | `Lcurve -> lcurve ?spectral problem ~lambdas
        | `Kfold k ->
          let rng = match rng with Some r -> r | None -> Rng.create 42 in
          kfold problem ~rng ~k ~lambdas
      in
      Obs.Span.set_float sp "chosen" chosen;
      Obs.Metrics.set "lambda.chosen" chosen;
      (* The full candidate profile goes on the trace stream instead of
         being dropped: diagnose plots it and trace diff compares it
         point-by-point. *)
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"lambda"
             ~values:[ ("chosen", chosen); ("candidates", float_of_int (Array.length lambdas)) ]
             ~tags:[ ("method", method_name method_) ]
             ~curve:(Array.map (fun p -> (p.lambda, p.score)) curve)
             ());
      chosen)

let select_result problem ~method_ ?rng ?lambdas ?spectral () =
  match select problem ~method_ ?rng ?lambdas ?spectral () with
  | lambda -> Ok lambda
  | exception Robust.Error.Error e -> Error e
