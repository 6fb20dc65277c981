open Numerics

let order_parameter (s : Population.snapshot) =
  let n = Array.length s.Population.cells in
  if n = 0 then 0.0
  else begin
    let sum_cos = ref 0.0 and sum_sin = ref 0.0 in
    Array.iter
      (fun (c : Cell.t) ->
        let angle = 2.0 *. Float.pi *. c.Cell.phase in
        sum_cos := !sum_cos +. Float.cos angle;
        sum_sin := !sum_sin +. Float.sin angle)
      s.Population.cells;
    let nf = float_of_int n in
    sqrt (((!sum_cos /. nf) ** 2.0) +. ((!sum_sin /. nf) ** 2.0))
  end

let phase_entropy ?(bins = 50) (s : Population.snapshot) =
  let n = Array.length s.Population.cells in
  if n = 0 then 0.0
  else begin
    let histogram = Stats.histogram ~bins ~lo:0.0 ~hi:1.0 (Population.phases s) in
    let total = Vec.sum histogram.Stats.counts in
    let entropy = ref 0.0 in
    Array.iter
      (fun count ->
        if count > 0.0 then begin
          let p = count /. total in
          entropy := !entropy -. (p *. log p)
        end)
      histogram.Stats.counts;
    !entropy /. log (float_of_int bins)
  end

let over_time snapshots =
  (Array.map order_parameter snapshots, Array.map (fun s -> phase_entropy s) snapshots)

let decay_time order ~times ~threshold =
  assert (Array.length order = Array.length times);
  let n = Array.length order in
  let result = ref None in
  (try
     for i = 0 to n - 1 do
       if order.(i) < threshold then begin
         if i = 0 then result := Some times.(0)
         else begin
           let w = (order.(i - 1) -. threshold) /. (order.(i - 1) -. order.(i)) in
           result := Some (times.(i - 1) +. (w *. (times.(i) -. times.(i - 1))))
         end;
         raise Exit
       end
     done
   with Exit -> ());
  !result
