(* Shared helpers for the test suites. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_rel ?(tol = 1e-6) msg expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected actual tol

let check_true msg condition = Alcotest.(check bool) msg true condition

(* Vector and matrix oracles: elementwise closeness within an absolute
   [tol] (false on a shape mismatch), printers for failure messages, and
   the small constructors and predicates the suites check results with. *)
let vec_approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol) x y

let mat_approx_equal ?(tol = 1e-9) (a : Numerics.Mat.t) (b : Numerics.Mat.t) =
  a.rows = b.rows && a.cols = b.cols && vec_approx_equal ~tol a.data b.data

let pp_vec fmt x =
  Format.fprintf fmt "[|%s|]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") x)))

let pp_mat fmt (m : Numerics.Mat.t) =
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[%s]@\n"
      (String.concat " "
         (List.init m.cols (fun j -> Printf.sprintf "%10.4g" (Numerics.Mat.get m i j))))
  done

let norm2 x = sqrt (Numerics.Vec.dot x x)

let diag v =
  let n = Array.length v in
  Numerics.Mat.init n n (fun i j -> if i = j then v.(i) else 0.0)

let is_symmetric ?(tol = 1e-9) m =
  mat_approx_equal ~tol m (Numerics.Mat.transpose m)

let check_vec ?(tol = 1e-9) msg expected actual =
  if not (vec_approx_equal ~tol expected actual) then
    Alcotest.failf "%s: vectors differ (tol %g):@ expected %a@ got %a" msg tol pp_vec
      expected pp_vec actual

let case name f = Alcotest.test_case name `Quick f

(* [repo_path dir] is [dir] of the repository's source tree: one directory
   up when the tests run in _build/default/test (test/dune declares the
   sources as dependencies), the working directory when main.exe runs from
   the repository root. A missing tree or directory fails the test, so the
   tree-wide checks never pass without checking anything. *)
let repo_path dir =
  let is_root root =
    Sys.file_exists (Filename.concat root "dune-project")
    && Sys.file_exists (Filename.concat root "lib")
  in
  match List.find_opt is_root [ Filename.parent_dir_name; Filename.current_dir_name ] with
  | None -> Alcotest.fail "no repository tree (dune-project and lib/) in .. or ."
  | Some root ->
    let path = Filename.concat root dir in
    if not (Sys.file_exists path) then Alcotest.failf "%s is missing" path;
    path

(* Does [needle] occur in [hay]? *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* Reference k-fold score, the oracle for [Deconv.Lambda.kfold]: the mean
   held-out error of [lambda] across the folds of
   [Optimize.Cross_validation.kfold_indices]. [fit_on ~train lambda] trains
   a model on the index subset; [predict_error model ~test] returns its
   mean squared error on the held-out subset. *)
let kfold_score ~rng ~k ~n ~fit_on ~predict_error lambda =
  let folds = Optimize.Cross_validation.kfold_indices rng ~n ~k in
  let total = ref 0.0 in
  Array.iter
    (fun test ->
      let in_test = Array.make n false in
      Array.iter (fun i -> in_test.(i) <- true) test;
      let train =
        Array.of_list (List.filter (fun i -> not in_test.(i)) (List.init n (fun i -> i)))
      in
      let model = fit_on ~train lambda in
      total := !total +. predict_error model ~test)
    folds;
  !total /. float_of_int k

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Finite-difference derivative check helpers. *)
let fd_deriv f x h = (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let fd_deriv2 f x h = (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)

(* ---------------- statistics oracles ---------------- *)

(* The penalized weighted least-squares fit by direct Cholesky solve, and
   its effective degrees of freedom as Σ_m w_m a_mᵀ (AᵀWA + λP)⁻¹ a_m, one
   solve per measurement row: the independent edf reference for
   [Deconv.Quality.system] and the direct reference for the spectral λ
   path. *)
module Ridge_oracle = struct
  open Numerics

  type fit = {
    x : Vec.t;
    fitted : Vec.t;  (** A x *)
    residuals : Vec.t;  (** b − A x *)
    rss : float;  (** weighted residual sum of squares *)
    edf : float;  (** effective degrees of freedom, tr(hat matrix) *)
    gcv : float;  (** generalized cross-validation score *)
  }

  (* Weights default to 1; requires [lambda >= 0] and a positive-definite
     normal matrix (raises [Linalg.Singular] otherwise). *)
  let solve ~a ~b ?weights ~penalty ~lambda () =
    assert (lambda >= 0.0);
    let m, _ = Mat.dims a in
    assert (Array.length b = m);
    let weights = match weights with Some w -> w | None -> Vec.ones m in
    let factor =
      Linalg.cholesky_factor (Optimize.Ridge.normal_matrix ~a ~weights ~penalty ~lambda)
    in
    let x = Linalg.cholesky_solve factor (Mat.tmv a (Vec.mul weights b)) in
    let fitted = Mat.mv a x in
    let residuals = Vec.sub b fitted in
    let rss = ref 0.0 and edf = ref 0.0 in
    for r = 0 to m - 1 do
      rss := !rss +. (weights.(r) *. residuals.(r) *. residuals.(r));
      let row = Mat.row a r in
      edf := !edf +. (weights.(r) *. Vec.dot row (Linalg.cholesky_solve factor row))
    done;
    let mf = float_of_int m in
    let denom = mf -. !edf in
    let gcv = if denom <= 0.0 then Float.infinity else mf *. !rss /. (denom *. denom) in
    { x; fitted; residuals; rss = !rss; edf = !edf; gcv }
end

(* Spectral condition number κ₂ = λ_max/λ_min of a symmetric matrix by
   Jacobi eigendecomposition (the generalized problem with s = I, whose
   eigenvalues are clamped at 0), infinite when λ_min <= 0: the reference
   the 1-norm κ of [Deconv.Quality.system] is bounded against
   (κ₂ <= κ₁ <= n·κ₂). *)
let condition_spd a =
  let values, _ =
    Numerics.Linalg.generalized_eigen_spd (Numerics.Mat.identity a.Numerics.Mat.rows) a
  in
  let n = Array.length values in
  if n = 0 then 1.0
  else begin
    let vmax = values.(0) and vmin = values.(n - 1) in
    if vmin <= 0.0 then Float.infinity else vmax /. vmin
  end

(* The Lotka–Volterra first integral V = c·x1 − d·ln x1 + b·x2 − a·ln x2,
   constant along exact trajectories: the invariant the integrator tests
   check. *)
let lv_conserved (p : Biomodels.Lotka_volterra.params) y =
  let x1 = y.(0) and x2 = y.(1) in
  (p.c *. x1) -. (p.d *. log x1) +. (p.b *. x2) -. (p.a *. log x2)

(* Reaction-network fixtures for the exact-simulation tests. *)

(* ∅ →(birth) X, X →(death) ∅; stationary law Poisson(birth/death). *)
let birth_death ~birth ~death =
  Stochastic.Reaction_network.create ~species:[ "X" ]
    ~reactions:
      [
        { Stochastic.Reaction_network.reactants = []; products = [ (0, 1) ]; rate = birth };
        { Stochastic.Reaction_network.reactants = [ (0, 1) ]; products = []; rate = death };
      ]

(* Two-state gene expression (species gene_off, gene_on, mrna): stationary
   mean mRNA = (k_transcribe/k_degrade)·k_on/(k_on + k_off). *)
let telegraph ~k_on ~k_off ~k_transcribe ~k_degrade =
  let r reactants products rate = { Stochastic.Reaction_network.reactants; products; rate } in
  Stochastic.Reaction_network.create ~species:[ "gene_off"; "gene_on"; "mrna" ]
    ~reactions:
      [
        r [ (0, 1) ] [ (1, 1) ] k_on;
        r [ (1, 1) ] [ (0, 1) ] k_off;
        r [ (1, 1) ] [ (1, 1); (2, 1) ] k_transcribe;
        r [ (2, 1) ] [] k_degrade;
      ]

(* Piecewise-constant sampling of every species on a time grid (rows =
   times, columns = species). *)
let sample_trajectory trajectory ~times =
  let n_species = Array.length trajectory.Stochastic.Gillespie.states.(0) in
  Numerics.Mat.init (Array.length times) n_species (fun m s ->
      Stochastic.Gillespie.value_at trajectory ~species:s times.(m))

(* Ensemble mean of [runs] exact simulations on a common grid: the
   oracle that Gillespie.direct converges to the mean-field ODE. *)
let mean_trajectory ~runs network ~rng ~x0 ~times =
  let n_t = Array.length times in
  let acc = ref (Numerics.Mat.zeros n_t (Stochastic.Reaction_network.num_species network)) in
  for _ = 1 to runs do
    let trajectory =
      Stochastic.Gillespie.direct network ~rng:(Numerics.Rng.split rng) ~x0 ~t0:times.(0)
        ~t1:(times.(n_t - 1) +. 1e-9)
    in
    acc := Numerics.Mat.add !acc (sample_trajectory trajectory ~times)
  done;
  Numerics.Mat.scale (1.0 /. float_of_int runs) !acc

(* Two typed errors of the same class, payloads aside. *)
let same_class a b = String.equal (Robust.Error.class_name a) (Robust.Error.class_name b)

(* The change in copy numbers one firing of [r] makes. *)
let net_change network (r : Stochastic.Reaction_network.reaction) =
  let delta = Array.make (Stochastic.Reaction_network.num_species network) 0 in
  List.iter (fun (idx, stoich) -> delta.(idx) <- delta.(idx) - stoich) r.reactants;
  List.iter (fun (idx, stoich) -> delta.(idx) <- delta.(idx) + stoich) r.products;
  delta

(* Concentration-space mass-action right-hand side of a network: the
   mean-field oracle for [Stochastic.Networks.lotka_volterra]'s rates. *)
let deterministic_rhs network ~volume : Numerics.Ode.system =
  let deltas =
    Array.map (net_change network) network.Stochastic.Reaction_network.reactions
  in
  let open Stochastic.Reaction_network in
  fun _t concentrations ->
    let dydt = Array.make (num_species network) 0.0 in
    Array.iteri
      (fun ri r ->
        let order = List.fold_left (fun acc (_, s) -> acc + s) 0 r.reactants in
        let flux =
          List.fold_left
            (fun acc (idx, stoich) ->
              acc *. (Float.max 0.0 concentrations.(idx) ** float_of_int stoich))
            (r.rate *. (volume ** float_of_int (order - 1)))
            r.reactants
        in
        Array.iteri (fun si d -> dydt.(si) <- dydt.(si) +. (float_of_int d *. flux)) deltas.(ri))
      network.reactions;
    dydt

(* The paper's equality functionals at coefficients α (zero at a feasible
   estimate), and β₀ = ∫β(φ)p(φ)dφ (paper eq. 14) with β = 0.4/(1 − φ). *)
let residual_conservation params basis alpha =
  Numerics.Vec.dot (Deconv.Constraints.conservation_row params basis) alpha

let residual_rate_continuity params basis alpha =
  Numerics.Vec.dot (Deconv.Constraints.rate_continuity_row params basis) alpha

let beta0 params =
  Deconv.Constraints.density_integral params (fun phi -> 0.4 /. (1.0 -. phi))

(* What [f] writes to an output channel, as a string. *)
let capture f =
  let path = Filename.temp_file "deconv_capture" ".txt" in
  Out_channel.with_open_bin path f;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* A CSV file's header and rows, failing the test on a parse error. *)
let read_csv path =
  match Dataio.Csv.read_columns_result ~path with
  | Ok (header, []) -> (header, [])
  | Ok (header, (first :: _ as columns)) ->
    (header, List.init (Array.length first) (fun i -> Array.of_list (List.map (fun c -> c.(i)) columns)))
  | Error e -> Alcotest.failf "unexpected CSV error: %s" (Dataio.Csv.error_to_string e)

(* Fault injectors the robustness suites corrupt fixtures with, beyond the
   ones the chaos harness in the library uses ([Robust.Fault.nan_at] and
   the gene-row faults). Each returns a corrupted copy. *)
module Faults = struct
  open Numerics

  let pick rng index v =
    match index with Some i -> i | None -> Rng.int rng (Array.length v)

  let map_at name ?index f =
    {
      Robust.Fault.name;
      inject =
        (fun rng v ->
          let v = Array.copy v in
          let i = pick rng index v in
          v.(i) <- f v.(i);
          v);
    }

  let inf_at ?index () = map_at "infinite entry" ?index (fun _ -> Float.infinity)
  let zero_at ?index () = map_at "zeroed entry" ?index (fun _ -> 0.0)
  let negate_at ?index () = map_at "negated entry" ?index (fun x -> -.x)

  (* Apply several injectors left to right. *)
  let compose fs =
    {
      Robust.Fault.name = String.concat " + " (List.map (fun f -> f.Robust.Fault.name) fs);
      inject =
        (fun rng x -> List.fold_left (fun acc f -> f.Robust.Fault.inject rng acc) x fs);
    }

  let spike ?index ~magnitude () =
    {
      Robust.Fault.name = Printf.sprintf "noise spike x%g" magnitude;
      inject =
        (fun rng v ->
          let v = Array.copy v in
          let i = pick rng index v in
          v.(i) <- v.(i) +. (magnitude *. Float.max 1.0 (Vec.norm_inf v));
          v);
    }

  (* Shuffle, guaranteed to actually permute when that is possible (length
     >= 2): the harness must not silently test the identity fault. Total:
     shorter vectors have no non-identity permutation and return unchanged.
     The identity test runs on an index permutation — comparing shuffled
     values would mistake NaN-containing vectors for permuted ones. *)
  let shuffle_strict rng v =
    let n = Array.length v in
    if n < 2 then Array.copy v
    else begin
      let perm = Array.init n (fun i -> i) in
      Rng.shuffle rng perm;
      let identity = ref true in
      Array.iteri (fun i p -> if p <> i then identity := false) perm;
      if !identity then begin
        perm.(0) <- 1;
        perm.(1) <- 0
      end;
      Array.map (fun i -> v.(i)) perm
    end

  let shuffle = { Robust.Fault.name = "shuffled order"; inject = shuffle_strict }

  let copy_kernel (k : Cellpop.Kernel.t) =
    {
      k with
      Cellpop.Kernel.phases = Array.copy k.Cellpop.Kernel.phases;
      times = Array.copy k.Cellpop.Kernel.times;
      q = Mat.copy k.Cellpop.Kernel.q;
      q_tilde = Mat.copy k.Cellpop.Kernel.q_tilde;
    }

  let kernel_nan_column ?column () =
    {
      Robust.Fault.name = "NaN kernel column";
      inject =
        (fun rng k ->
          let k = copy_kernel k in
          let j = pick rng column k.Cellpop.Kernel.phases in
          for m = 0 to (fst (Mat.dims k.Cellpop.Kernel.q)) - 1 do
            Mat.set k.Cellpop.Kernel.q m j Float.nan
          done;
          k);
    }

  let kernel_zero_row ?row () =
    {
      Robust.Fault.name = "zeroed kernel row";
      inject =
        (fun rng k ->
          let k = copy_kernel k in
          let m = pick rng row k.Cellpop.Kernel.times in
          Mat.set_row k.Cellpop.Kernel.q m (Vec.zeros (snd (Mat.dims k.Cellpop.Kernel.q)));
          k);
    }

  let kernel_duplicate_time ?row () =
    {
      Robust.Fault.name = "duplicated time point";
      inject =
        (fun rng k ->
          let k = copy_kernel k in
          let n_t = Array.length k.Cellpop.Kernel.times in
          let m =
            match row with Some m -> m | None -> 1 + Rng.int rng (Stdlib.max 1 (n_t - 1))
          in
          let m = Stdlib.min (Stdlib.max 1 m) (n_t - 1) in
          k.Cellpop.Kernel.times.(m) <- k.Cellpop.Kernel.times.(m - 1);
          Mat.set_row k.Cellpop.Kernel.q m (Mat.row k.Cellpop.Kernel.q (m - 1));
          k);
    }

  let kernel_shuffle_times =
    {
      Robust.Fault.name = "shuffled kernel times";
      inject =
        (fun rng k ->
          let k = copy_kernel k in
          { k with Cellpop.Kernel.times = shuffle_strict rng k.Cellpop.Kernel.times });
    }
end

