open Numerics

(* p(φ_sst) is tightly concentrated (σ ≈ 0.02 around 0.15). Integrating
   only over its ±10σ support window (clipped inside (0,1)) both resolves
   the peak sharply and keeps integrands such as β(φ) = 0.4/(1−φ) — which
   blows up at φ = 1 where p is already zero — finite. *)
let quadrature_panels = 2000

(* The composite-Simpson nodes of that window with p(φ) tabulated on them,
   formed exactly as Integrate.simpson forms them (a, a + h·i, b), so
   [integrate] below is bit-identical to Simpson on h(φ)·p(φ) while paying
   for the density's exp once per node per row instead of once per node
   per integrand. *)
type quadrature = { nodes : Vec.t; density : Vec.t; step : float }

let quadrature (params : Cellpop.Params.t) =
  let mu = params.Cellpop.Params.mu_sst in
  let sigma = Cellpop.Params.sst_std params in
  let a = Float.max 0.0 (mu -. (10.0 *. sigma)) in
  let b = Float.min (1.0 -. 1e-9) (mu +. (10.0 *. sigma)) in
  assert (b > a);
  let n = quadrature_panels in
  let step = (b -. a) /. float_of_int n in
  let nodes =
    Array.init (n + 1) (fun i ->
        if i = 0 then a else if i = n then b else a +. (step *. float_of_int i))
  in
  { nodes; density = Array.map (Cellpop.Params.sst_density params) nodes; step }

(* Simpson's 1/4/2 accumulation, in Integrate.simpson's order, of h at
   each node times the tabulated density. *)
let integrate q h =
  let n = Array.length q.nodes - 1 in
  let acc = ref ((h q.nodes.(0) *. q.density.(0)) +. (h q.nodes.(n) *. q.density.(n))) in
  for i = 1 to n - 1 do
    let coeff = if i mod 2 = 1 then 4.0 else 2.0 in
    acc := !acc +. (coeff *. (h q.nodes.(i) *. q.density.(i)))
  done;
  !acc *. q.step /. 3.0

let density_integral params h = integrate (quadrature params) h

(* Relative growth rate of the stalked segment: the (1 − st) = 0.4 of the
   final volume still to be grown, spread over the remaining phase. *)
let beta phi = (1.0 -. Cellpop.Params.st_volume_fraction) /. (1.0 -. phi)

let conservation_row params (basis : Spline.Basis.t) =
  let sw = Cellpop.Params.sw_volume_fraction in
  let st = Cellpop.Params.st_volume_fraction in
  let q = quadrature params in
  Array.init basis.Spline.Basis.size (fun i ->
      let psi = basis.Spline.Basis.eval i in
      psi 1.0 -. (sw *. psi 0.0) -. (st *. integrate q psi))

let rate_continuity_row params (basis : Spline.Basis.t) =
  let sw = Cellpop.Params.sw_volume_fraction in
  let st = Cellpop.Params.st_volume_fraction in
  let q = quadrature params in
  let b0 = integrate q beta in
  Array.init basis.Spline.Basis.size (fun i ->
      let psi = basis.Spline.Basis.eval i in
      let psi' = basis.Spline.Basis.deriv i in
      (b0 *. psi 1.0) -. (b0 *. psi 0.0)
      -. integrate q (fun phi -> beta phi *. psi phi)
      -. (sw *. psi' 0.0)
      -. (st *. integrate q psi')
      +. psi' 1.0)

let positivity_rows basis ~grid = Spline.Basis.design basis grid
