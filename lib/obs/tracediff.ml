(* Jitter floor: spans whose total is below this in both traces carry
   more scheduler noise than signal, so they are skipped rather than
   gated — don't gate what you can't trust. *)
let noise_floor_s = 1e-4

(* Delta floor: a trace total is ONE wall-clock sample per span, not a
   fit over many runs — across two process invocations a
   few-millisecond span routinely drifts 30–50% from page cache,
   frequency scaling and scheduling alone. So a verdict fires
   only when the absolute drift also clears this floor; below it the
   span is "ok" (measured, inside single-sample noise). Real regressions
   in traces worth diffing move tens of milliseconds. *)
let delta_floor_s = 5e-3

let default_tolerance = 0.30

type verdict = Regression | Improvement | Unchanged | Skipped of string

type time_row = {
  span : string;
  calls_a : int;
  calls_b : int;
  total_a : float;
  total_b : float;
  ratio : float;
  verdict : verdict;
}

type quality_row = {
  solve : string;
  stat : string;
  value_a : float;
  value_b : float;
}

type t = {
  time : time_row list;
  quality : quality_row list;
  quality_checked : int;
  only_a : string list;
  only_b : string list;
}

let time_rows ~tolerance events_a events_b =
  let rows_a = Export.aggregate_span_rows events_a in
  let rows_b = Export.aggregate_span_rows events_b in
  let tbl_b = Hashtbl.create 32 in
  List.iter (fun (name, calls, total, _self) -> Hashtbl.replace tbl_b name (calls, total)) rows_b;
  let seen = Hashtbl.create 32 in
  let of_a =
    List.map
      (fun (name, calls_a, total_a, _self) ->
        Hashtbl.replace seen name ();
        match Hashtbl.find_opt tbl_b name with
        | None ->
          {
            span = name;
            calls_a;
            calls_b = 0;
            total_a;
            total_b = Float.nan;
            ratio = Float.nan;
            verdict = Skipped "absent from B";
          }
        | Some (calls_b, total_b) ->
          let ratio = total_b /. total_a in
          let verdict =
            if Float.max total_a total_b < noise_floor_s then
              Skipped "below noise floor"
            else if not (Float.is_finite ratio) then Skipped "zero baseline"
            else if Float.abs (total_b -. total_a) < delta_floor_s then Unchanged
            else if ratio > 1.0 +. tolerance then Regression
            else if ratio < 1.0 /. (1.0 +. tolerance) then Improvement
            else Unchanged
          in
          { span = name; calls_a; calls_b; total_a; total_b; ratio; verdict })
      rows_a
  in
  let of_b_only =
    List.filter_map
      (fun (name, calls_b, total_b, _self) ->
        if Hashtbl.mem seen name then None
        else
          Some
            {
              span = name;
              calls_a = 0;
              calls_b;
              total_a = Float.nan;
              total_b;
              ratio = Float.nan;
              verdict = Skipped "absent from A";
            })
      rows_b
  in
  of_a @ of_b_only

(* Selector-curve scores are the one quality statistic that cannot be
   gated bit-exactly: a candidate score near the interpolation boundary
   conditions like κ(AᵀWA + λΩ), so two algebraically equivalent
   evaluation orders (normal-equations vs spectral coordinates) round to
   answers ~ε·κ apart — that is evaluation-order noise, not drift. Real
   selector changes (different weighting, grid semantics, a wrong
   formula) move scores by percents, far above this band. The λ values
   of the curve and every scalar statistic remain bit-exact. *)
let curve_score_rtol = 1e-3

let curve_scores_equal sa sb =
  Float.equal sa sb
  ||
  let rel = Float.abs (sb -. sa) /. Float.max (Float.abs sa) (Float.abs sb) in
  rel <= curve_score_rtol

(* Quality statistics are deterministic given the inputs, so unlike wall
   time they diff exactly: any bit-level change in κ, λ, edf or a curve
   λ value is reportable (curve scores alone carry the relative band
   above). Float.equal treats nan = nan as true, which is what we want —
   both solves failing to produce a statistic is not a delta. *)
let quality_rows events_a events_b =
  let groups_a = Diag.by_solve events_a in
  let groups_b = Diag.by_solve events_b in
  let tbl_b = Hashtbl.create 32 in
  List.iter (fun (solve, diags) -> Hashtbl.replace tbl_b solve diags) groups_b;
  let checked = ref 0 in
  let rows = ref [] in
  let only_a = ref [] and only_b = ref [] in
  let add solve stat value_a value_b = rows := { solve; stat; value_a; value_b } :: !rows in
  List.iter
    (fun (solve, diags_a) ->
      match Hashtbl.find_opt tbl_b solve with
      | None -> only_a := solve :: !only_a
      | Some diags_b ->
        List.iter
          (fun (da : Diag.t) ->
            match Diag.stage diags_b da.d_stage with
            | None -> ()
            | Some db ->
              List.iter
                (fun (key, va) ->
                  match Diag.value db key with
                  | None -> ()
                  | Some vb ->
                    incr checked;
                    if not (Float.equal va vb) then
                      add solve (da.d_stage ^ "/" ^ key) va vb)
                da.d_values;
              let na = Array.length da.d_curve and nb = Array.length db.d_curve in
              if na > 0 || nb > 0 then begin
                incr checked;
                if na <> nb then
                  add solve (da.d_stage ^ "/curve.length") (float_of_int na) (float_of_int nb)
                else begin
                  let worst = ref 0.0 and at = ref (-1) in
                  Array.iteri
                    (fun i (la, sa) ->
                      let lb, sb = db.d_curve.(i) in
                      let dl = Float.abs (lb -. la) and ds = Float.abs (sb -. sa) in
                      let d = Float.max dl ds in
                      if (not (Float.equal la lb)) || not (curve_scores_equal sa sb) then
                        if d > !worst || !at < 0 then begin
                          worst := d;
                          at := i
                        end)
                    da.d_curve;
                  if !at >= 0 then begin
                    let la, sa = da.d_curve.(!at) and lb, sb = db.d_curve.(!at) in
                    if not (Float.equal la lb) then
                      add solve (Printf.sprintf "%s/curve[%d].lambda" da.d_stage !at) la lb;
                    if not (curve_scores_equal sa sb) then
                      add solve (Printf.sprintf "%s/curve[%d].score" da.d_stage !at) sa sb
                  end
                end
              end)
          diags_a;
        Hashtbl.remove tbl_b solve)
    groups_a;
  List.iter (fun (solve, _) -> if Hashtbl.mem tbl_b solve then only_b := solve :: !only_b) groups_b;
  (List.rev !rows, !checked, List.rev !only_a, List.rev !only_b)

let diff ?(tolerance = default_tolerance) events_a events_b =
  (* NaN fails both band comparisons in [time_rows], so it would pass
     every slowdown as [Unchanged]; a negative band has no meaning. *)
  if not (Float.is_finite tolerance && tolerance >= 0.0) then
    invalid_arg
      (Printf.sprintf "Obs.Tracediff.diff: tolerance must be finite and >= 0, got %g" tolerance);
  let time = time_rows ~tolerance events_a events_b in
  let quality, quality_checked, only_a, only_b = quality_rows events_a events_b in
  { time; quality; quality_checked; only_a; only_b }

let has_regression t =
  List.exists (fun r -> match r.verdict with Regression -> true | _ -> false) t.time

let has_quality_delta t = t.quality <> [] || t.only_a <> [] || t.only_b <> []

let verdict_name = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Unchanged -> "ok"
  | Skipped why -> Printf.sprintf "skipped (%s)" why

let format_total s = if Float.is_nan s then "         -" else Printf.sprintf "%10.3f" (s *. 1e3)

let output oc t =
  Printf.fprintf oc "wall time by span (A -> B, ms total):\n";
  Printf.fprintf oc "  %-36s %7s %7s  %10s  %10s  %6s  %s\n" "span" "callsA" "callsB" "A" "B"
    "ratio" "verdict";
  List.iter
    (fun r ->
      Printf.fprintf oc "  %-36s %6dx %6dx  %s  %s  %6s  %s\n" r.span r.calls_a r.calls_b
        (format_total r.total_a) (format_total r.total_b)
        (if Float.is_finite r.ratio then Printf.sprintf "%.2f" r.ratio else "-")
        (verdict_name r.verdict))
    t.time;
  Printf.fprintf oc "\nquality: %d statistics compared, %d deltas\n" t.quality_checked
    (List.length t.quality);
  List.iter
    (fun q ->
      Printf.fprintf oc "  %-12s %-28s %s -> %s\n" q.solve q.stat
        (Export.float_json q.value_a) (Export.float_json q.value_b))
    t.quality;
  let list_only label = function
    | [] -> ()
    | solves -> Printf.fprintf oc "  solves only in %s: %s\n" label (String.concat ", " solves)
  in
  list_only "A" t.only_a;
  list_only "B" t.only_b;
  let verdict =
    if has_regression t then "REGRESSION"
    else if has_quality_delta t then "quality drift"
    else "no regressions"
  in
  Printf.fprintf oc "\ntrace diff verdict: %s\n" verdict
