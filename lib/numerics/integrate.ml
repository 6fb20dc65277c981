let trapezoid_weights x =
  let n = Array.length x in
  assert (n >= 2);
  Array.init n (fun i ->
      let left = if i = 0 then 0.0 else (x.(i) -. x.(i - 1)) /. 2.0 in
      let right = if i = n - 1 then 0.0 else (x.(i + 1) -. x.(i)) /. 2.0 in
      left +. right)

let simpson f ~a ~b ~n =
  let n = if n mod 2 = 0 then n else n + 1 in
  let n = Stdlib.max n 2 in
  let h = (b -. a) /. float_of_int n in
  let acc = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let coeff = if i mod 2 = 1 then 4.0 else 2.0 in
    acc := !acc +. (coeff *. f (a +. (h *. float_of_int i)))
  done;
  !acc *. h /. 3.0

(* Nodes are roots of the Legendre polynomial P_n, found by Newton iteration
   from the Chebyshev initial guess; weights w_i = 2 / ((1-x²) P'_n(x)²). *)
let gauss_legendre_nodes n =
  assert (n >= 1);
  let nodes = Array.make n 0.0 and weights = Array.make n 0.0 in
  let m = (n + 1) / 2 in
  for i = 0 to m - 1 do
    let x = ref (cos (Float.pi *. (float_of_int i +. 0.75) /. (float_of_int n +. 0.5))) in
    let p_deriv = ref 0.0 in
    let continue = ref true in
    let iter = ref 0 in
    while !continue && !iter < 100 do
      incr iter;
      (* Evaluate P_n and P_{n-1} by recurrence. *)
      let p0 = ref 1.0 and p1 = ref 0.0 in
      for j = 0 to n - 1 do
        let p2 = !p1 in
        p1 := !p0;
        let jf = float_of_int j in
        p0 := ((((2.0 *. jf) +. 1.0) *. !x *. !p1) -. (jf *. p2)) /. (jf +. 1.0)
      done;
      let pp = float_of_int n *. ((!x *. !p0) -. !p1) /. ((!x *. !x) -. 1.0) in
      p_deriv := pp;
      let dx = !p0 /. pp in
      x := !x -. dx;
      if Float.abs dx < 1e-15 then continue := false
    done;
    nodes.(i) <- -. !x;
    nodes.(n - 1 - i) <- !x;
    let w = 2.0 /. ((1.0 -. (!x *. !x)) *. !p_deriv *. !p_deriv) in
    weights.(i) <- w;
    weights.(n - 1 - i) <- w
  done;
  (nodes, weights)
