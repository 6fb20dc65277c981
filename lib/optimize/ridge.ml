open Numerics

let normal_matrix ~a ~weights ~penalty ~lambda =
  let m, n = Mat.dims a in
  assert (Array.length weights = m);
  assert (Mat.dims penalty = (n, n));
  let out = Mat.scale lambda penalty in
  for r = 0 to m - 1 do
    let row = Mat.row a r in
    let w = weights.(r) in
    if not (Float.equal w 0.0) then
      for i = 0 to n - 1 do
        if not (Float.equal row.(i) 0.0) then
          for j = 0 to n - 1 do
            Mat.set out i j (Mat.get out i j +. (w *. row.(i) *. row.(j)))
          done
      done
  done;
  out
