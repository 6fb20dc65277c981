open Numerics

let matrix_grid (k : Cellpop.Kernel.t) =
  let n_t = Array.length k.Cellpop.Kernel.times in
  let n_phi = Array.length k.Cellpop.Kernel.phases in
  Mat.init n_t n_phi (fun m j -> Mat.get k.Cellpop.Kernel.q m j *. k.Cellpop.Kernel.bin_width)

let matrix_basis k basis =
  let design = Spline.Basis.design basis k.Cellpop.Kernel.phases in
  Mat.matmul (matrix_grid k) design

let apply_fn k profile =
  Cellpop.Kernel.integrate_profile k (Array.map profile k.Cellpop.Kernel.phases)
