type t = float array

let zeros n = Array.make n 0.0
let ones n = Array.make n 1.0
let copy = Array.copy
let of_list = Array.of_list

let linspace a b n =
  assert (n >= 2);
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (h *. float_of_int i))

let check2 x y = assert (Array.length x = Array.length y)

let add x y =
  check2 x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check2 x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x
let neg x = scale (-1.0) x

let mul x y =
  check2 x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let axpy a x y =
  check2 x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check2 x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let sum x = Array.fold_left ( +. ) 0.0 x

let mean x =
  assert (Array.length x > 0);
  sum x /. float_of_int (Array.length x)

let norm_inf x = Array.fold_left (fun acc xi -> Float.max acc (Float.abs xi)) 0.0 x

let min x =
  assert (Array.length x > 0);
  Array.fold_left Float.min x.(0) x

let max x =
  assert (Array.length x > 0);
  Array.fold_left Float.max x.(0) x

let argmin x =
  assert (Array.length x > 0);
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) < x.(!best) then best := i
  done;
  !best

let argmax x =
  assert (Array.length x > 0);
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let concat = Array.concat
