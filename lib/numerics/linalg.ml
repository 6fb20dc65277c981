exception Singular of string

type lu = { lu : Mat.t; pivots : int array; sign : float }

(* LU with partial pivoting, in place on a copy. The loops index the
   backing array directly, as [jacobi_eigen] does: same operations in the
   same order, without a boxed float per cross-module Mat.get/set. *)
let lu_factor a =
  let n, m = Mat.dims a in
  assert (n = m);
  let lu = Mat.copy a in
  let d = lu.Mat.data in
  let pivots = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: largest magnitude in column k at/below the diagonal. *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs d.((i * n) + k) > Float.abs d.((!pivot_row * n) + k) then pivot_row := i
    done;
    let krow = k * n in
    if !pivot_row <> k then begin
      let prow = !pivot_row * n in
      for j = 0 to n - 1 do
        let tmp = d.(krow + j) in
        d.(krow + j) <- d.(prow + j);
        d.(prow + j) <- tmp
      done;
      let tp = pivots.(k) in
      pivots.(k) <- pivots.(!pivot_row);
      pivots.(!pivot_row) <- tp;
      sign := -. !sign
    end;
    let pivot = d.(krow + k) in
    if Float.equal pivot 0.0 then raise (Singular "lu_factor: zero pivot");
    for i = k + 1 to n - 1 do
      let irow = i * n in
      let factor = d.(irow + k) /. pivot in
      d.(irow + k) <- factor;
      if not (Float.equal factor 0.0) then
        for j = k + 1 to n - 1 do
          d.(irow + j) <- d.(irow + j) -. (factor *. d.(krow + j))
        done
    done
  done;
  { lu; pivots; sign = !sign }

let lu_solve { lu; pivots; _ } b =
  let n = lu.Mat.rows in
  assert (Array.length b = n);
  let d = lu.Mat.data in
  let x = Array.init n (fun i -> b.(pivots.(i))) in
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    let irow = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (d.(irow + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let irow = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (d.(irow + j) *. x.(j))
    done;
    x.(i) <- !acc /. d.(irow + i)
  done;
  x

let solve a b = lu_solve (lu_factor a) b

let solve_many a b =
  let f = lu_factor a in
  let n, m = Mat.dims b in
  assert (n = a.Mat.rows);
  let x = Mat.zeros n m in
  for j = 0 to m - 1 do
    Mat.set_col x j (lu_solve f (Mat.col b j))
  done;
  x

let inverse a = solve_many a (Mat.identity a.Mat.rows)

let det a =
  match lu_factor a with
  | { lu; sign; _ } ->
    let acc = ref sign in
    for i = 0 to lu.Mat.rows - 1 do
      acc := !acc *. Mat.get lu i i
    done;
    !acc
  | exception Singular _ -> 0.0

type cholesky = Mat.t

let cholesky_factor a =
  let n, m = Mat.dims a in
  assert (n = m);
  let l = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !acc <= 0.0 then raise (Singular "cholesky_factor: non-positive pivot");
        Mat.set l i i (sqrt !acc)
      end
      else Mat.set l i j (!acc /. Mat.get l j j)
    done
  done;
  l

let cholesky_solve l b =
  let n = l.Mat.rows in
  assert (Array.length b = n);
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get l i j *. y.(j))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l j i *. y.(j))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  y

let cholesky_log_det (l : cholesky) =
  let acc = ref 0.0 in
  for i = 0 to l.Mat.rows - 1 do
    acc := !acc +. (2.0 *. log (Mat.get l i i))
  done;
  !acc

let solve_spd a b =
  match cholesky_factor a with
  | l -> cholesky_solve l b
  | exception Singular _ -> solve a b

let qr_lstsq a b =
  let m, n = Mat.dims a in
  assert (m >= n);
  assert (Array.length b = m);
  let r = Mat.copy a in
  let qtb = Array.copy b in
  (* Householder QR applied in place; Q is applied to b on the fly. *)
  for k = 0 to n - 1 do
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let v = Mat.get r i k in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if Float.equal norm 0.0 then raise (Singular "qr_lstsq: rank-deficient column");
    let alpha = if Mat.get r k k > 0.0 then -.norm else norm in
    (* Householder vector v stored implicitly: v_k = r_kk - alpha, v_i = r_ik. *)
    let vk = Mat.get r k k -. alpha in
    let beta = -1.0 /. (alpha *. vk) in
    (* Apply H = I - beta v vᵀ to remaining columns of r. *)
    for j = k + 1 to n - 1 do
      let s = ref (vk *. Mat.get r k j) in
      for i = k + 1 to m - 1 do
        s := !s +. (Mat.get r i k *. Mat.get r i j)
      done;
      let s = beta *. !s in
      Mat.set r k j (Mat.get r k j -. (s *. vk));
      for i = k + 1 to m - 1 do
        Mat.set r i j (Mat.get r i j -. (s *. Mat.get r i k))
      done
    done;
    (* Apply H to b. *)
    let s = ref (vk *. qtb.(k)) in
    for i = k + 1 to m - 1 do
      s := !s +. (Mat.get r i k *. qtb.(i))
    done;
    let s = beta *. !s in
    qtb.(k) <- qtb.(k) -. (s *. vk);
    for i = k + 1 to m - 1 do
      qtb.(i) <- qtb.(i) -. (s *. Mat.get r i k)
    done;
    Mat.set r k k alpha
  done;
  (* Back substitution on the n x n upper triangle. *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref qtb.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get r i j *. x.(j))
    done;
    let rii = Mat.get r i i in
    if Float.equal rii 0.0 then raise (Singular "qr_lstsq: zero diagonal in R");
    x.(i) <- !acc /. rii
  done;
  x

(* Forward substitution L y = b against a lower-triangular factor. The
   inner loops index the backing array directly: these solves run 2n+n
   times per spectral factorization, where cross-module Mat.get's boxed
   float returns were a measurable share of the cost. *)
let lower_solve (l : cholesky) b =
  let n = l.Mat.rows in
  assert (Array.length b = n);
  let ld = l.Mat.data in
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    let irow = i * n in
    for j = 0 to i - 1 do
      acc := !acc -. (ld.(irow + j) *. y.(j))
    done;
    y.(i) <- !acc /. ld.(irow + i)
  done;
  y

(* Back substitution Lᵀ x = b against the same lower-triangular factor. *)
let lower_transpose_solve (l : cholesky) b =
  let n = l.Mat.rows in
  assert (Array.length b = n);
  let ld = l.Mat.data in
  let x = Array.copy b in
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (ld.((j * n) + i) *. x.(j))
    done;
    x.(i) <- !acc /. ld.((i * n) + i)
  done;
  x

(* Gauss–Jordan elimination with complete pivoting on rows scaled to unit
   max-norm (same null space, scale-free dependence test). After step i,
   row i reads α_{pivot i} + Σ_free r_{i,f}·α_f = 0. A zero row scales to
   NaNs, which never win the pivot search, so it fails that test too. *)
let null_space c =
  let k, n = Mat.dims c in
  let rows =
    Array.init k (fun i ->
        let row = Mat.row c i in
        Vec.scale (1.0 /. Vec.norm_inf row) row)
  in
  let pivot_row = Array.make n (-1) in
  for step = 0 to k - 1 do
    let best = ref 0.0 and pr = ref step and pc = ref 0 in
    for i = step to k - 1 do
      Array.iteri
        (fun j v ->
          if pivot_row.(j) < 0 && Float.abs v > !best then begin
            best := Float.abs v;
            pr := i;
            pc := j
          end)
        rows.(i)
    done;
    if !best <= 1e-12 then raise (Singular "null_space: dependent rows");
    let p = Vec.scale (1.0 /. rows.(!pr).(!pc)) rows.(!pr) in
    rows.(!pr) <- rows.(step);
    rows.(step) <- p;
    Array.iteri (fun i row -> if i <> step then Vec.axpy (-.row.(!pc)) p row) rows;
    pivot_row.(!pc) <- step
  done;
  let free = Array.of_list (List.filter (fun j -> pivot_row.(j) < 0) (List.init n Fun.id)) in
  Mat.init n (n - k) (fun j col ->
      if j = free.(col) then 1.0
      else if pivot_row.(j) < 0 then 0.0
      else -.rows.(pivot_row.(j)).(free.(col)))

let jacobi_eigen ?(tol = 1e-12) ?(max_sweeps = 64) a =
  let n, m = Mat.dims a in
  assert (n = m);
  let d = Mat.copy a in
  let v = Mat.identity n in
  (* The rotation loops index the backing arrays directly: at the small
     sizes this eigensolver runs on (spline bases, n ~ 12-20), the
     cross-module Mat.get/set calls — each returning a boxed float —
     cost an order of magnitude more than the arithmetic itself. Same
     operations in the same order, so results are bit-identical. *)
  let dd = d.Mat.data and vd = v.Mat.data in
  let off_diagonal_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = dd.((i * n) + j) in
        acc := !acc +. (2.0 *. x *. x)
      done
    done;
    sqrt !acc
  in
  let scale = Float.max 1e-300 (Mat.frobenius a) in
  let sweep = ref 0 in
  while off_diagonal_norm () > tol *. scale && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = dd.((p * n) + q) in
        if Float.abs apq > 1e-300 then begin
          let app = dd.((p * n) + p) and aqq = dd.((q * n) + q) in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Rotate rows/columns p and q. *)
          for k = 0 to n - 1 do
            let kp = (k * n) + p and kq = (k * n) + q in
            let dkp = dd.(kp) and dkq = dd.(kq) in
            dd.(kp) <- (c *. dkp) -. (s *. dkq);
            dd.(kq) <- (s *. dkp) +. (c *. dkq)
          done;
          let prow = p * n and qrow = q * n in
          for k = 0 to n - 1 do
            let dpk = dd.(prow + k) and dqk = dd.(qrow + k) in
            dd.(prow + k) <- (c *. dpk) -. (s *. dqk);
            dd.(qrow + k) <- (s *. dpk) +. (c *. dqk)
          done;
          for k = 0 to n - 1 do
            let kp = (k * n) + p and kq = (k * n) + q in
            let vkp = vd.(kp) and vkq = vd.(kq) in
            vd.(kp) <- (c *. vkp) -. (s *. vkq);
            vd.(kq) <- (s *. vkp) +. (c *. vkq)
          done
        end
      done
    done
  done;
  let eigenvalues = Array.init n (fun i -> Mat.get d i i) in
  (* Sort descending, permuting eigenvector columns accordingly. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare eigenvalues.(j) eigenvalues.(i)) order;
  let sorted_values = Array.map (fun i -> eigenvalues.(i)) order in
  let sorted_vectors = Mat.init n n (fun i j -> Mat.get v i order.(j)) in
  (sorted_values, sorted_vectors)

let generalized_eigen_spd s omega =
  let n, m = Mat.dims s in
  assert (n = m);
  assert (Mat.dims omega = (n, n));
  let l = cholesky_factor s in
  (* K = L⁻¹ Ω L⁻ᵀ, built in two triangular sweeps: M = L⁻¹Ω column by
     column, then row j of K = L⁻¹ (row j of M) since Kᵀ = L⁻¹Mᵀ. *)
  let mid = Mat.zeros n n in
  for j = 0 to n - 1 do
    Mat.set_col mid j (lower_solve l (Mat.col omega j))
  done;
  let k = Mat.zeros n n in
  for i = 0 to n - 1 do
    Mat.set_row k i (lower_solve l (Mat.row mid i))
  done;
  (* Symmetrize: the two sweeps agree only up to rounding, and the Jacobi
     rotations assume exact symmetry. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = 0.5 *. (Mat.get k i j +. Mat.get k j i) in
      Mat.set k i j v;
      Mat.set k j i v
    done
  done;
  let values, u = jacobi_eigen k in
  (* Ω is PSD by contract; clamp the rounding-level negatives so downstream
     spectral weights 1/(1+λγ) stay monotone in λ. *)
  let gamma = Array.map (fun v -> Float.max 0.0 v) values in
  let b = Mat.zeros n n in
  for j = 0 to n - 1 do
    Mat.set_col b j (lower_transpose_solve l (Mat.col u j))
  done;
  (gamma, b)

let singular_values a =
  let m, n = Mat.dims a in
  let gram = if m >= n then Mat.gram a else Mat.gram (Mat.transpose a) in
  let values, _ = jacobi_eigen gram in
  Array.map (fun v -> sqrt (Float.max 0.0 v)) values
