type t = { rows : int; cols : int; data : float array }

let make rows cols x =
  assert (rows >= 0 && cols >= 0);
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let zeros rows cols = make rows cols 0.0

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows rows =
  let r = Array.length rows in
  assert (r > 0);
  let c = Array.length rows.(0) in
  Array.iter (fun row -> assert (Array.length row = c)) rows;
  init r c (fun i j -> rows.(i).(j))

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let dims m = (m.rows, m.cols)

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i v =
  assert (Array.length v = m.cols);
  Array.blit v 0 m.data (i * m.cols) m.cols

let set_col m j v =
  assert (Array.length v = m.rows);
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let matmul a b =
  assert (a.cols = b.rows);
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if not (Float.equal aik 0.0) then begin
        let arow = i * b.cols and brow = k * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(arow + j) <- c.data.(arow + j) +. (aik *. b.data.(brow + j))
        done
      end
    done
  done;
  c

let mv a x =
  assert (a.cols = Array.length x);
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (a.data.(base + j) *. x.(j))
      done;
      !acc)

let tmv a x =
  assert (a.rows = Array.length x);
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let xi = x.(i) in
    if not (Float.equal xi 0.0) then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
      done
  done;
  y

let gram a =
  let g = zeros a.cols a.cols in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      let aij = a.data.(base + j) in
      if not (Float.equal aij 0.0) then
        for k = j to a.cols - 1 do
          let v = get g j k +. (aij *. a.data.(base + k)) in
          set g j k v
        done
    done
  done;
  (* Mirror the upper triangle. *)
  for j = 0 to a.cols - 1 do
    for k = 0 to j - 1 do
      set g j k (get g k j)
    done
  done;
  g

let map f a = { a with data = Array.map f a.data }

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data
