open Numerics

type trajectory = {
  times : Vec.t;
  states : int array array;
}

let direct ?(max_events = 1_000_000) network ~rng ~x0 ~t0 ~t1 =
  assert (t1 > t0);
  assert (Array.length x0 = Reaction_network.num_species network);
  let state = Array.copy x0 in
  let times = ref [ t0 ] in
  let states = ref [ Array.copy state ] in
  let t = ref t0 in
  let events = ref 0 in
  let running = ref true in
  while !running && !events < max_events do
    let total = Reaction_network.total_propensity network state in
    if total <= 0.0 then running := false
    else begin
      let dt = Rng.exponential rng ~rate:total in
      if !t +. dt >= t1 then running := false
      else begin
        t := !t +. dt;
        (* Select the firing channel proportionally to its propensity. *)
        let target = Rng.float rng *. total in
        let acc = ref 0.0 in
        let chosen = ref None in
        Array.iter
          (fun r ->
            if !chosen = None then begin
              acc := !acc +. Reaction_network.propensity r state;
              if !acc >= target then chosen := Some r
            end)
          network.Reaction_network.reactions;
        (match !chosen with
        | Some r -> Reaction_network.apply r state
        | None ->
          (* Round-off corner: fire the last reaction with positive propensity. *)
          let last = ref None in
          Array.iter
            (fun r -> if Reaction_network.propensity r state > 0.0 then last := Some r)
            network.Reaction_network.reactions;
          Option.iter (fun r -> Reaction_network.apply r state) !last);
        times := !t :: !times;
        states := Array.copy state :: !states;
        incr events
      end
    end
  done;
  times := t1 :: !times;
  states := Array.copy state :: !states;
  { times = Vec.of_list (List.rev !times); states = Array.of_list (List.rev !states) }

let value_at trajectory ~species t =
  let n = Array.length trajectory.times in
  if t <= trajectory.times.(0) then float_of_int trajectory.states.(0).(species)
  else if t >= trajectory.times.(n - 1) then float_of_int trajectory.states.(n - 1).(species)
  else begin
    let i = Interp.bracket trajectory.times t in
    float_of_int trajectory.states.(i).(species)
  end

