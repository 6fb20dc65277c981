open Numerics

type t = {
  basis : Mat.t;
  gamma : Vec.t;
  anchor : float;
}

type projection = {
  coeff : Vec.t;
  yty : float;
}

type scores = { rss : float; roughness : float; edf : float }

let size t = Array.length t.gamma

let factorize ?(anchor = 0.0) ~gram ~penalty () =
  assert (anchor >= 0.0);
  Obs.Span.with_ "spectral.factorize" (fun sp ->
      Obs.Span.set_int sp "n" gram.Mat.rows;
      Obs.Span.set_float sp "anchor" anchor;
      let s =
        if Float.equal anchor 0.0 then gram else Mat.add gram (Mat.scale anchor penalty)
      in
      let gamma, basis = Linalg.generalized_eigen_spd s penalty in
      Obs.Metrics.incr "spectral.factorizations";
      { basis; gamma; anchor })

(* A strictly positive shift that lifts the penalty's scale to ~1e-4 of the
   Gram's: large enough to make S = AᵀWA + λ₀Ω solidly SPD when the Gram
   side is rank-deficient (k-fold training sets smaller than the basis),
   small enough to keep the shifted spectral weights well-conditioned over
   the whole candidate grid. The anchored reparameterization is exact for
   any λ₀, so this constant affects rounding only. *)
let auto_anchor ~gram ~penalty =
  1e-4 *. Float.max 1e-300 (Mat.max_abs gram) /. Float.max 1e-300 (Mat.max_abs penalty)

let factorize_auto ~gram ~penalty =
  factorize ~anchor:(auto_anchor ~gram ~penalty) ~gram ~penalty ()

let project t ~rhs ~yty = { coeff = Mat.tmv t.basis rhs; yty }

let project_data t ~a ~weights ~b =
  let wb = Vec.mul weights b in
  project t ~rhs:(Mat.tmv a wb) ~yty:(Vec.dot b wb)

(* Spectral weight dᵢ(λ) = 1/(1 + (λ−λ₀)γᵢ): the diagonal of
   Bᵀ(AᵀWA + λΩ)⁻ᵀB. The denominator 1 − λ₀γᵢ + λγᵢ can only reach zero
   when the Gram side is singular along eigendirection i AND λ = 0 — the
   same configuration where the direct Cholesky of AᵀWA + λΩ fails — so a
   non-positive denominator maps to the same {!Linalg.Singular} the direct
   path raises. *)
let weight t ~lambda i =
  let denom = 1.0 +. ((lambda -. t.anchor) *. t.gamma.(i)) in
  if denom <= 1e-300 then
    raise (Linalg.Singular "Spectral.weight: singular shifted system")
  else 1.0 /. denom

let solution t proj ~lambda =
  let n = size t in
  assert (Array.length proj.coeff = n);
  let dc = Array.init n (fun i -> weight t ~lambda i *. proj.coeff.(i)) in
  Mat.mv t.basis dc

let evaluate t proj ~lambda =
  let n = size t in
  assert (Array.length proj.coeff = n);
  let rss = ref proj.yty in
  let roughness = ref 0.0 in
  let edf = ref 0.0 in
  for i = 0 to n - 1 do
    let d = weight t ~lambda i in
    let g = t.gamma.(i) in
    (* BᵀNB = I − λ₀Γ for the anchored factorization (N = AᵀWA); the clamp
       removes rounding-level negatives on near-null Gram directions. *)
    let nfac = Float.max 0.0 (1.0 -. (t.anchor *. g)) in
    let c2 = proj.coeff.(i) *. proj.coeff.(i) in
    rss := !rss +. ((((d *. nfac) -. 2.0) *. d) *. c2);
    roughness := !roughness +. (g *. d *. d *. c2);
    edf := !edf +. (d *. nfac)
  done;
  (* Weighted RSS is a difference of same-order terms; near interpolation
     cancellation can push it a hair below zero. *)
  { rss = Float.max 0.0 !rss; roughness = !roughness; edf = !edf }

let factorize_problem ~a ~weights ~penalty =
  factorize_auto ~gram:(Ridge.normal_matrix ~a ~weights ~penalty ~lambda:0.0) ~penalty
