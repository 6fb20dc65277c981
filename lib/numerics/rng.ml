type t = { mutable state : int64; mutable spare : float option }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed; spare = None }

let copy t = { state = t.state; spare = t.spare }

let int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = int64 t in
  { state = s; spare = None }

(* 53 random bits scaled into [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection to avoid modulo bias. *)
  let bound = Int64.of_int n in
  let rec go () =
    let r = Int64.shift_right_logical (int64 t) 1 in
    let v = Int64.rem r bound in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound) 1L then go ()
    else Int64.to_int v
  in
  go ()

let normal t ~mean ~std =
  match t.spare with
  | Some z ->
    t.spare <- None;
    mean +. (std *. z)
  | None ->
    (* Box–Muller; u1 must be strictly positive. *)
    let rec positive () =
      let u = float t in
      if u > 0.0 then u else positive ()
    in
    let u1 = positive () and u2 = float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare <- Some (r *. sin theta);
    mean +. (std *. r *. cos theta)

let truncated_normal t ~mean ~std ~lo ~hi =
  assert (lo < hi);
  if std <= 0.0 then Float.max lo (Float.min hi mean)
  else begin
    (* Plain rejection is fine when the window has decent mass; otherwise
       fall back to inverse-free uniform rejection against the density. *)
    let rec reject n =
      if n = 0 then
        (* Window far in the tail: sample uniformly, accept against the
           (normalized-free) Gaussian density ratio. *)
        let rec unif () =
          let x = uniform t ~lo ~hi in
          let edge = if mean < lo then lo else if mean > hi then hi else mean in
          let logp = -.((x -. mean) ** 2.0) /. (2.0 *. std *. std) in
          let logq = -.((edge -. mean) ** 2.0) /. (2.0 *. std *. std) in
          if log (Float.max 1e-300 (float t)) <= logp -. logq then x else unif ()
        in
        unif ()
      else
        let x = normal t ~mean ~std in
        if x >= lo && x <= hi then x else reject (n - 1)
    in
    reject 64
  end

let exponential t ~rate =
  assert (rate > 0.0);
  let rec positive () =
    let u = float t in
    if u > 0.0 then u else positive ()
  in
  -.log (positive ()) /. rate

let lognormal_factor t ~cv =
  if cv <= 0.0 then 1.0
  else begin
    let sigma = sqrt (log (1.0 +. (cv *. cv))) in
    exp (normal t ~mean:(-.(sigma *. sigma) /. 2.0) ~std:sigma)
  end

let poisson t ~lambda =
  assert (lambda >= 0.0);
  if Float.equal lambda 0.0 then 0
  else if lambda < 64.0 then begin
    (* Knuth: count uniform draws until the product falls below e^-lambda. *)
    let limit = exp (-.lambda) in
    let rec go k product =
      let product = product *. float t in
      if product <= limit then k else go (k + 1) product
    in
    go 0 1.0
  end
  else begin
    (* Normal approximation with continuity correction. *)
    let x = normal t ~mean:lambda ~std:(sqrt lambda) in
    Stdlib.max 0 (int_of_float (Float.round x))
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
