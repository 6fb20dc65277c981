open Numerics

let random_profile rng =
  let n_pulses = 1 + Rng.int rng 3 in
  let baseline = Rng.uniform rng ~lo:0.1 ~hi:1.0 in
  let pulses =
    List.init n_pulses (fun _ ->
        let center = Rng.uniform rng ~lo:0.1 ~hi:0.9 in
        let width = Rng.uniform rng ~lo:0.06 ~hi:0.2 in
        let height = Rng.uniform rng ~lo:1.0 ~hi:6.0 in
        (center, width, height))
  in
  fun phi ->
    List.fold_left
      (fun acc (center, width, height) ->
        let z = (phi -. center) /. width in
        acc +. (height *. exp (-0.5 *. z *. z)))
      baseline pulses

type summary = {
  runs : int;
  median_rmse : float;
  iqr_rmse : float * float;
  median_correlation : float;
  worst_correlation : float;
  fraction_above_09 : float;
}

let recovery_distribution ?(runs = 20) (config : Pipeline.config) ~rng =
  assert (runs >= 1);
  Array.init runs (fun i ->
      let profile = random_profile rng in
      let config_i = { config with Pipeline.seed = config.Pipeline.seed + (1000 * (i + 1)) } in
      let run = Pipeline.run config_i ~profile in
      run.Pipeline.recovery)

let summarize comparisons =
  let runs = Array.length comparisons in
  assert (runs >= 1);
  let rmses = Array.map (fun c -> c.Metrics.rmse) comparisons in
  let correlations = Array.map (fun c -> c.Metrics.correlation) comparisons in
  let above =
    Array.fold_left (fun acc c -> if c > 0.9 then acc + 1 else acc) 0 correlations
  in
  {
    runs;
    median_rmse = Stats.median rmses;
    iqr_rmse = (Stats.quantile rmses 0.25, Stats.quantile rmses 0.75);
    median_correlation = Stats.median correlations;
    worst_correlation = Vec.min correlations;
    fraction_above_09 = float_of_int above /. float_of_int runs;
  }

