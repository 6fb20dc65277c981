type snapshot = { time : float; cells : Cell.t array }

(* Advance one cell by [dt] minutes, emitting it and any descendants born
   within the window into [out]. Division times are located exactly because
   phase is linear in time. *)
let rec advance_cell params rng out cell dt =
  let to_division = Cell.time_to_division cell in
  if dt < to_division then out := Cell.advance cell dt :: !out
  else begin
    let remaining = dt -. to_division in
    let swarmer = Cell.swarmer_daughter params rng in
    let stalked = Cell.stalked_daughter params rng in
    advance_cell params rng out swarmer remaining;
    advance_cell params rng out stalked remaining
  end

(* Founders per RNG chunk. Fixed — never derived from the domain count —
   so the substream each founder sees is a function of (seed, n0) alone
   and simulation results are bit-identical at every jobs setting. *)
let founders_per_chunk = 256

(* Simulate founders [lo, hi) through every snapshot time with a private
   generator. Cells are independent, so a chunk's trajectory never needs
   to see another chunk's cells; the per-time cell arrays are merged by
   the caller in chunk order. *)
let simulate_chunk params crng ~lo ~hi ~times =
  let count = hi - lo in
  let first = Cell.founder params crng in
  let founders = Array.make count first in
  for i = 1 to count - 1 do
    founders.(i) <- Cell.founder params crng
  done;
  let current = ref founders in
  let now = ref 0.0 in
  let n_times = Array.length times in
  let per_time = Array.make n_times [||] in
  for i = 0 to n_times - 1 do
    let dt = times.(i) -. !now in
    if dt > 0.0 then begin
      let out = ref [] in
      Array.iter (fun c -> advance_cell params crng out c dt) !current;
      current := Array.of_list !out;
      now := times.(i)
    end;
    per_time.(i) <- Array.copy !current
  done;
  per_time

let simulate params ~rng ~n0 ~times =
  Obs.Span.with_ "population.simulate" (fun sp ->
      assert (n0 > 0);
      let n_times = Array.length times in
      assert (n_times >= 1);
      for i = 0 to n_times - 2 do
        assert (times.(i) < times.(i + 1))
      done;
      assert (times.(0) >= 0.0);
      let n_chunks = (n0 + founders_per_chunk - 1) / founders_per_chunk in
      Obs.Span.set_int sp "n0" n0;
      Obs.Span.set_int sp "n_times" n_times;
      Obs.Span.set_int sp "chunks" n_chunks;
      (* One substream per chunk, derived in ascending chunk order before
         any dispatch: the derivation consumes the parent generator
         sequentially, so neither the substreams nor the parent's final
         state depend on execution order. *)
      let rngs = Array.make n_chunks rng in
      for c = 0 to n_chunks - 1 do
        rngs.(c) <- Numerics.Rng.split rng
      done;
      let per_chunk =
        Parallel.parallel_map ~chunk:1 ~n:n_chunks (fun c ->
            let lo = c * founders_per_chunk in
            let hi = Stdlib.min n0 (lo + founders_per_chunk) in
            simulate_chunk params rngs.(c) ~lo ~hi ~times)
      in
      let snapshots =
        Array.init n_times (fun i ->
            {
              time = times.(i);
              cells = Array.concat (Array.to_list (Array.map (fun pt -> pt.(i)) per_chunk));
            })
      in
      let final_cells = Array.length snapshots.(n_times - 1).cells in
      Obs.Span.set_int sp "final_cells" final_cells;
      Obs.Metrics.incr ~by:(float_of_int final_cells) "population.cells_simulated";
      snapshots)

let count s = Array.length s.cells

let phases s = Array.map (fun (c : Cell.t) -> c.Cell.phase) s.cells

let growth_rate ?discard snapshots =
  let n = Array.length snapshots in
  assert (n >= 2);
  let t_min = snapshots.(0).time and t_max = snapshots.(n - 1).time in
  let discard = match discard with Some d -> d | None -> t_min +. ((t_max -. t_min) /. 2.0) in
  let retained =
    Array.of_list
      (List.filter
         (fun s -> s.time >= discard && Array.length s.cells > 0)
         (Array.to_list snapshots))
  in
  assert (Array.length retained >= 2);
  let times = Array.map (fun s -> s.time) retained in
  let log_counts = Array.map (fun s -> log (float_of_int (Array.length s.cells))) retained in
  (* Least-squares slope. *)
  let t_mean = Numerics.Stats.mean times and l_mean = Numerics.Stats.mean log_counts in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i t ->
      num := !num +. ((t -. t_mean) *. (log_counts.(i) -. l_mean));
      den := !den +. ((t -. t_mean) *. (t -. t_mean)))
    times;
  assert (!den > 0.0);
  !num /. !den

let euler_lotka_rate (p : Params.t) =
  let t_cycle = p.Params.mean_cycle_minutes in
  let s = p.Params.mu_sst in
  let equation r = exp (-.r *. t_cycle) +. exp (-.r *. t_cycle *. (1.0 -. s)) -. 1.0 in
  (* r is bracketed by the one-offspring (r = 0+) and symmetric-doubling
     (ln 2 / (T(1-s))) regimes. *)
  Numerics.Rootfind.brent equation ~a:(1e-6 /. t_cycle) ~b:(2.0 *. log 2.0 /. t_cycle)

let mean_signal params f s =
  let num = ref 0.0 and den = ref 0.0 in
  Array.iter
    (fun c ->
      let v = Cell.volume params c in
      num := !num +. (v *. f ~phi:c.Cell.phase);
      den := !den +. v)
    s.cells;
  if Float.equal !den 0.0 then 0.0 else !num /. !den
