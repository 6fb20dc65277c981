let bracket x v =
  let n = Array.length x in
  assert (n >= 2);
  if v <= x.(0) then 0
  else if v >= x.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if x.(mid) <= v then lo := mid else hi := mid
    done;
    !lo
  end

let linear ~x ~y v =
  assert (Array.length x = Array.length y);
  let i = bracket x v in
  let t = (v -. x.(i)) /. (x.(i + 1) -. x.(i)) in
  y.(i) +. (t *. (y.(i + 1) -. y.(i)))

let linear_clamped ~x ~y v =
  let n = Array.length x in
  if v <= x.(0) then y.(0) else if v >= x.(n - 1) then y.(n - 1) else linear ~x ~y v

type pchip = { x : Vec.t; y : Vec.t; d : Vec.t (* endpoint derivatives per knot *) }

(* Fritsch–Carlson monotone slopes. *)
let pchip_build ~x ~y =
  let n = Array.length x in
  assert (n = Array.length y);
  assert (n >= 2);
  let h = Array.init (n - 1) (fun i -> x.(i + 1) -. x.(i)) in
  let delta = Array.init (n - 1) (fun i -> (y.(i + 1) -. y.(i)) /. h.(i)) in
  let d = Array.make n 0.0 in
  if n = 2 then begin
    d.(0) <- delta.(0);
    d.(1) <- delta.(0)
  end
  else begin
    (* Interior slopes: weighted harmonic mean when deltas share a sign. *)
    for i = 1 to n - 2 do
      if delta.(i - 1) *. delta.(i) > 0.0 then begin
        let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
        let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
        d.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
      end
    done;
    (* One-sided endpoint formulas with monotonicity clipping. *)
    let endpoint h0 h1 d0 d1 =
      let slope = (((2.0 *. h0) +. h1) *. d0 -. (h0 *. d1)) /. (h0 +. h1) in
      if slope *. d0 <= 0.0 then 0.0
      else if d0 *. d1 < 0.0 && Float.abs slope > 3.0 *. Float.abs d0 then 3.0 *. d0
      else slope
    in
    d.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    d.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  { x; y; d }

let pchip_eval { x; y; d } v =
  let n = Array.length x in
  if v <= x.(0) then y.(0)
  else if v >= x.(n - 1) then y.(n - 1)
  else begin
    let i = bracket x v in
    let h = x.(i + 1) -. x.(i) in
    let s = (v -. x.(i)) /. h in
    let s2 = s *. s in
    let s3 = s2 *. s in
    let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
    let h10 = s3 -. (2.0 *. s2) +. s in
    let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
    let h11 = s3 -. s2 in
    (h00 *. y.(i)) +. (h10 *. h *. d.(i)) +. (h01 *. y.(i + 1)) +. (h11 *. h *. d.(i + 1))
  end
