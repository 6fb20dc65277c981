open Numerics

type comparison = {
  rmse : float;
  nrmse : float;
  mae : float;
  max_abs : float;
  correlation : float;
}

let compare ~truth ~estimate =
  {
    rmse = Stats.rmse truth estimate;
    nrmse = Stats.nrmse truth estimate;
    mae = Stats.mae truth estimate;
    max_abs = Stats.max_abs_error truth estimate;
    correlation = Stats.correlation truth estimate;
  }

let to_string c =
  Printf.sprintf "rmse=%.4g nrmse=%.4g mae=%.4g max=%.4g corr=%.4f" c.rmse c.nrmse c.mae
    c.max_abs c.correlation

