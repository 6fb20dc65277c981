open Numerics

(* ---------------- per-solve statistics ---------------- *)

type system = { kappa : float; edf : float }

let abs_sum v = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 v

(* One Cholesky factor of M = AᵀWA + λΩ serves both statistics. Column j
   of M⁻¹ is one solve against e_j, so ‖M⁻¹‖₁ is its largest column abs
   sum, and with G = AᵀWA symmetric tr(M⁻¹G) = Σ_j (M⁻¹e_j)·(Ge_j). At
   n ≈ 10–20 coefficients the n solves cost about what the factor does. *)
let system problem ~lambda =
  let a = Problem.design problem and weights = Problem.weights problem in
  let penalty = Problem.penalty problem in
  let normal = Optimize.Ridge.normal_matrix ~a ~weights ~penalty ~lambda in
  match Linalg.cholesky_factor normal with
  | exception Linalg.Singular _ -> { kappa = Float.infinity; edf = Float.nan }
  | factor ->
    let gram = Optimize.Ridge.normal_matrix ~a ~weights ~penalty ~lambda:0.0 in
    let n = normal.Mat.rows in
    let norm = ref 0.0 and inv_norm = ref 0.0 and edf = ref 0.0 in
    for j = 0 to n - 1 do
      let e = Vec.zeros n in
      e.(j) <- 1.0;
      let inv_col = Linalg.cholesky_solve factor e in
      norm := Float.max !norm (abs_sum (Mat.col normal j));
      inv_norm := Float.max !inv_norm (abs_sum inv_col);
      edf := !edf +. Vec.dot inv_col (Mat.col gram j)
    done;
    { kappa = !norm *. !inv_norm; edf = !edf }

let standardized_residuals problem ~fitted =
  let g = problem.Problem.measurements in
  let sigmas = problem.Problem.sigmas in
  Array.init (Array.length g) (fun m -> (g.(m) -. fitted.(m)) /. sigmas.(m))

(* Residual-whiteness statistics on the standardized residuals: the runs
   test sees serial sign structure, the moment check sees departure from
   the assumed Gaussian noise model. *)
let residual_stats problem ~fitted =
  let standardized = standardized_residuals problem ~fitted in
  [
    ("runs_z", Stats.runs_z standardized);
    ("normality_z", Stats.normality_z standardized);
  ]

let emit_solve ?solve ~problem ~fitted ~lambda ~entry_lambda ~rss ~degradation
    ~active_positivity ~qp_iterations () =
  if Obs.Diag.enabled () then begin
    let { kappa; edf } = system problem ~lambda in
    let values =
      [
        ("kappa", kappa);
        ("lambda", lambda);
        ("entry_lambda", entry_lambda);
        ("edf", edf);
        ("rss", rss);
        ("n", float_of_int (Problem.num_measurements problem));
        ("active_positivity", float_of_int active_positivity);
        ("qp_iterations", float_of_int qp_iterations);
        ("degradation", float_of_int degradation);
      ]
      @ residual_stats problem ~fitted
    in
    Obs.Diag.emit (Obs.Diag.make ?solve ~stage:"solve" ~values ())
  end

(* ---------------- report cards over a trace ---------------- *)

type thresholds = {
  kappa_limit : float;
  edf_fraction : float;
  whiteness_limit : float;
  normality_limit : float;
}

(* kappa_limit matches the solver's default condition_limit: the
   κ at which solve_robust starts preconditioning is also the κ worth
   flagging in a report. *)
let default_thresholds =
  { kappa_limit = 1e12; edf_fraction = 0.9; whiteness_limit = 2.5; normality_limit = 3.5 }

type card = {
  solve : string;
  kappa : float;
  lambda : float;
  entry_lambda : float;
  edf : float;
  rss : float;
  runs_z : float;
  normality_z : float;
  n : float;
  active_positivity : float;
  qp_iterations : float;
  degradation : float;
  selector : string;
  curve : (float * float) array;
  flags : string list;
}

let value_or_nan d key = match Obs.Diag.value d key with Some v -> v | None -> Float.nan

let tag_or d key default = match Obs.Diag.tag d key with Some v -> v | None -> default

let flags_of ~thresholds ~kappa ~edf ~n ~runs_z ~normality_z ~degradation =
  List.filter_map
    (fun (cond, name) -> if cond then Some name else None)
    [
      ((not (Float.is_finite kappa)) || kappa > thresholds.kappa_limit, "kappa-overflow");
      (Float.is_finite edf && n > 0.0 && edf > thresholds.edf_fraction *. n, "edf-saturated");
      (Float.abs runs_z > thresholds.whiteness_limit, "non-white-residuals");
      (Float.abs normality_z > thresholds.normality_limit, "non-normal-residuals");
      (degradation > 0.5, "degraded-cascade");
    ]

let cards ?(thresholds = default_thresholds) events =
  List.filter_map
    (fun (solve, diags) ->
      match Obs.Diag.stage diags "solve" with
      | None -> None
      | Some d ->
        let lambda_diag = Obs.Diag.stage diags "lambda" in
        let kappa = value_or_nan d "kappa" in
        let edf = value_or_nan d "edf" in
        let n = value_or_nan d "n" in
        let runs_z = value_or_nan d "runs_z" in
        let normality_z = value_or_nan d "normality_z" in
        let degradation = value_or_nan d "degradation" in
        Some
          {
            solve;
            kappa;
            lambda = value_or_nan d "lambda";
            entry_lambda = value_or_nan d "entry_lambda";
            edf;
            rss = value_or_nan d "rss";
            runs_z;
            normality_z;
            n;
            active_positivity = value_or_nan d "active_positivity";
            qp_iterations = value_or_nan d "qp_iterations";
            degradation;
            selector =
              (match lambda_diag with Some l -> tag_or l "method" "?" | None -> "-");
            curve = (match lambda_diag with Some l -> l.Obs.Diag.d_curve | None -> [||]);
            flags =
              flags_of ~thresholds ~kappa ~edf ~n ~runs_z ~normality_z ~degradation;
          })
    (Obs.Diag.by_solve events)

let healthy card = card.flags = []

let verdict card = if healthy card then "healthy" else String.concat ", " card.flags

(* Whiteness in words, for the card: the runs test is the primary signal
   the paper's noise model can be checked against. *)
let whiteness_verdict ~thresholds card =
  if not (Float.is_finite card.runs_z) then "unknown"
  else if Float.abs card.runs_z <= thresholds.whiteness_limit then
    Printf.sprintf "white (runs z=%+.2f)" card.runs_z
  else Printf.sprintf "NON-WHITE (runs z=%+.2f)" card.runs_z

let output_card ?(thresholds = default_thresholds) ?(plot = true) oc card =
  Printf.fprintf oc "solve %s — %s\n" card.solve (verdict card);
  Printf.fprintf oc "  kappa        %-14s %s\n"
    (Printf.sprintf "%.3g" card.kappa)
    (if (not (Float.is_finite card.kappa)) || card.kappa > thresholds.kappa_limit then
       "(over condition limit)"
     else "");
  Printf.fprintf oc "  lambda       %.3g (selector %s, entry %.3g)\n" card.lambda card.selector
    card.entry_lambda;
  Printf.fprintf oc "  edf          %.2f of n=%.0f%s\n" card.edf card.n
    (if Float.is_finite card.edf && card.n > 0.0 && card.edf > thresholds.edf_fraction *. card.n
     then " (SATURATED)"
     else "");
  Printf.fprintf oc "  rss          %.6g\n" card.rss;
  Printf.fprintf oc "  residuals    %s, normality z=%+.2f\n"
    (whiteness_verdict ~thresholds card)
    card.normality_z;
  Printf.fprintf oc "  constraints  %d active positivity, %d QP iterations\n"
    (int_of_float card.active_positivity)
    (int_of_float card.qp_iterations);
  Printf.fprintf oc "  degradation  %d\n" (int_of_float card.degradation);
  if plot then begin
    let finite =
      List.filter (fun (_, s) -> Float.is_finite s) (Array.to_list card.curve)
    in
    if List.length finite >= 2 then begin
      let pts = Array.of_list finite in
      let xs = Array.map (fun (l, _) -> log10 (Float.max 1e-300 l)) pts in
      let ys = Array.map snd pts in
      Dataio.Ascii_plot.output oc ~height:10
        ~title:(Printf.sprintf "lambda profile (%s score vs log10 lambda)" card.selector)
        [ { Dataio.Ascii_plot.label = "score"; glyph = '*'; xs; ys } ]
    end
  end

let output_report ?(thresholds = default_thresholds) ?(plot = true) oc cards_list =
  List.iteri
    (fun i card ->
      if i > 0 then Printf.fprintf oc "\n";
      output_card ~thresholds ~plot oc card)
    cards_list;
  let flagged = List.filter (fun c -> not (healthy c)) cards_list in
  Printf.fprintf oc "\n%d solve(s), %d flagged\n" (List.length cards_list) (List.length flagged)

let json_of_card card =
  let fj = Obs.Export.float_json in
  let fields =
    [
      ("kappa", fj card.kappa);
      ("lambda", fj card.lambda);
      ("edf", fj card.edf);
      ("rss", fj card.rss);
      ("runs_z", fj card.runs_z);
      ("normality_z", fj card.normality_z);
      ("n", fj card.n);
      ("active_positivity", fj card.active_positivity);
      ("qp_iterations", fj card.qp_iterations);
      ("degradation", fj card.degradation);
    ]
  in
  let quote s = Printf.sprintf "\"%s\"" (Obs.Export.json_escape s) in
  let curve =
    String.concat ","
      (Array.to_list (Array.map (fun (l, s) -> Printf.sprintf "[%s,%s]" (fj l) (fj s)) card.curve))
  in
  Printf.sprintf
    "{\"solve\":%s,%s,\"selector\":%s,\"flags\":[%s],\"curve\":[%s]}"
    (quote card.solve)
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields))
    (quote card.selector)
    (String.concat "," (List.map quote card.flags))
    curve

let report_json cards_list =
  Printf.sprintf "{\"solves\":[%s]}" (String.concat "," (List.map json_of_card cards_list))

(* ---------------- batch aggregation ---------------- *)

type quantiles = { q50 : float; q90 : float; q_max : float; count : int }

let summarize per_solve =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun stats ->
      List.iter
        (fun (key, v) ->
          if Float.is_finite v then
            match Hashtbl.find_opt tbl key with
            | Some r -> r := v :: !r
            | None ->
              Hashtbl.replace tbl key (ref [ v ]);
              order := key :: !order)
        stats)
    per_solve;
  List.rev_map
    (fun key ->
      let values = Array.of_list !(Hashtbl.find tbl key) in
      Array.sort Float.compare values;
      ( key,
        {
          q50 = Stats.quantile values 0.5;
          q90 = Stats.quantile values 0.9;
          q_max = values.(Array.length values - 1);
          count = Array.length values;
        } ))
    !order

let publish ~prefix summary =
  List.iter
    (fun (key, q) ->
      Obs.Metrics.set (prefix ^ ".quality." ^ key ^ ".p50") q.q50;
      Obs.Metrics.set (prefix ^ ".quality." ^ key ^ ".p90") q.q90)
    summary

let output_quantiles oc summary =
  if summary <> [] then begin
    Printf.fprintf oc "per-gene quality quantiles:\n";
    Printf.fprintf oc "  %-20s %10s %10s %10s  (%s)\n" "statistic" "p50" "p90" "max" "genes";
    List.iter
      (fun (key, q) ->
        Printf.fprintf oc "  %-20s %10.4g %10.4g %10.4g  (%d)\n" key q.q50 q.q90 q.q_max q.count)
      summary
  end
