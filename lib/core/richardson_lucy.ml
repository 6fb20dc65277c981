open Numerics

type result = {
  profile : Vec.t;
  fitted : Vec.t;
  iterations : int;
  misfit_history : Vec.t;
}

let deconvolve ?(iterations = 100) ?initial ?(min_value = 1e-12) kernel
    ~measurements () =
  assert (iterations >= 1);
  Obs.Span.with_ "rl.deconvolve" (fun sp ->
      let a = Forward.matrix_grid kernel in
      let n_m, n_phi = Mat.dims a in
      assert (Array.length measurements = n_m);
      let g = Array.map (fun v -> Float.max 0.0 v) measurements in
      let f =
        match initial with
        | Some f0 ->
          assert (Array.length f0 = n_phi);
          Array.map (fun v -> Float.max min_value v) f0
        | None -> Array.make n_phi (Float.max min_value (Vec.mean g))
      in
      (* Column sums of A (the RL normalization Aᵀ1). *)
      let column_sums = Mat.tmv a (Vec.ones n_m) in
      let misfits = Array.make iterations 0.0 in
      let f = ref f in
      for k = 0 to iterations - 1 do
        let previous = !f in
        let predicted = Mat.mv a !f in
        let ratios =
          Array.init n_m (fun m -> g.(m) /. Float.max min_value predicted.(m))
        in
        let correction = Mat.tmv a ratios in
        f :=
          Array.init n_phi (fun j ->
              let c =
                if column_sums.(j) > min_value then correction.(j) /. column_sums.(j) else 1.0
              in
              Float.max min_value (!f.(j) *. c));
        let predicted = Mat.mv a !f in
        misfits.(k) <- Stats.rmse g predicted;
        if Obs.Span.enabled () then begin
          (* Relative sup-norm change of the profile this multiplicative
             update made — the natural RL convergence measure. *)
          let rel_change =
            Vec.norm_inf (Vec.sub !f previous)
            /. Float.max min_value (Vec.norm_inf previous)
          in
          Obs.Span.point sp "rl.iteration" ~iter:(k + 1)
            [ ("rel_change", rel_change); ("misfit", misfits.(k)) ]
        end
      done;
      Obs.Span.set_int sp "iterations" iterations;
      Obs.Span.set_int sp "n_phi" n_phi;
      Obs.Span.set_float sp "final_misfit" misfits.(iterations - 1);
      Obs.Metrics.incr "rl.deconvolutions";
      Obs.Metrics.observe "rl.final_misfit" misfits.(iterations - 1);
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"rl"
             ~values:
               [
                 ("iterations", float_of_int iterations);
                 ("final_misfit", misfits.(iterations - 1));
               ]
             ());
      { profile = !f; fitted = Mat.mv a !f; iterations; misfit_history = misfits })
