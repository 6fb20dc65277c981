open Numerics

type report = {
  standardized_residuals : Vec.t;
  chi2 : float;
  dof : float;
  p_value : float;
  lag1_autocorrelation : float;
  runs_z : float;
}

let lag1 residuals =
  let n = Array.length residuals in
  if n < 3 then 0.0
  else begin
    let head = Array.sub residuals 0 (n - 1) in
    let tail = Array.sub residuals 1 (n - 1) in
    Stats.correlation head tail
  end

(* Wald-Wolfowitz runs test on the residual signs (lives in Stats so the
   quality observatory and this report share one implementation). *)
let runs_z_score = Stats.runs_z

let analyze problem (estimate : Solver.estimate) =
  let standardized = Quality.standardized_residuals problem ~fitted:estimate.Solver.fitted in
  let chi2 = Array.fold_left (fun acc z -> acc +. (z *. z)) 0.0 standardized in
  (* Residual dof: measurements minus the effective dof of the
     unconstrained smoother at the same lambda. That edf is NaN when the
     smoother's normal matrix is not SPD (e.g. many knots at lambda = 0);
     the lack-of-fit test is then unavailable, so dof and p stay NaN rather
     than flowing through Float.max (NaN-propagating) and int_of_float
     (unspecified on NaN). *)
  let edf = (Quality.system problem ~lambda:estimate.Solver.lambda).edf in
  let dof, p_value =
    if Float.is_nan edf then (Float.nan, Float.nan)
    else begin
      let dof = Float.max 1.0 (float_of_int (Array.length standardized) -. edf) in
      (dof, Special.chi2_sf ~dof:(int_of_float (Float.round dof)) chi2)
    end
  in
  {
    standardized_residuals = standardized;
    chi2;
    dof;
    p_value;
    lag1_autocorrelation = lag1 standardized;
    runs_z = runs_z_score standardized;
  }

let adequate ?(alpha = 0.05) report =
  report.p_value > alpha && Float.abs report.runs_z <= 2.5

let to_string r =
  Printf.sprintf "chi2=%.2f (dof %.1f, p=%.3f), lag1=%.2f, runs z=%.2f" r.chi2 r.dof r.p_value
    r.lag1_autocorrelation r.runs_z
