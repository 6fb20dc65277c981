open Numerics

(* One prepared template problem: its design, penalty, constraint blocks
   and Demmler–Reinsch factorization are built once here, and every gene
   re-points it at its own data. [shared_valid] is the kernel and basis
   part of Problem.validate, which no gene's data can change. [spectral]
   is [None] when the template's system cannot be factored (a gene then
   fails its own λ selection with the typed error). [key] has the
   checkpoint key parts every gene shares already fed: kernel, basis,
   parameters and constraint switches. *)
type t = {
  template : Problem.t;
  shared_valid : (unit, Robust.Error.t) result;
  spectral : Optimize.Spectral.t option;
  key : Checkpoint.key_state;
}

let hex = Printf.sprintf "%h"

let prepare ?(use_positivity = true) ?(use_conservation = true) ?(use_rate_continuity = true)
    ~kernel ~basis ~params () =
  let measurements = Vec.zeros (Array.length kernel.Cellpop.Kernel.times) in
  let template =
    Problem.create ~use_positivity ~use_conservation ~use_rate_continuity ~kernel ~basis
      ~measurements ~params ()
  in
  (* The template's own data (zero measurements, unit sigmas) always
     passes, so this is the kernel and basis verdict alone. An invalid
     kernel is not factored: every gene fails with its typed error. *)
  let shared_valid = Problem.validate template in
  let flag v = if v then "1" else "0" in
  {
    template;
    shared_valid;
    spectral =
      (match shared_valid with
      | Error _ -> None
      | Ok () -> (
        match Problem.factorize template with
        | fact -> Some fact
        | exception Linalg.Singular _ -> None));
    key =
      Checkpoint.feed_key Checkpoint.key_seed
        [
          "kernel";
          Checkpoint.vec_part kernel.Cellpop.Kernel.phases;
          hex kernel.Cellpop.Kernel.bin_width;
          Checkpoint.vec_part kernel.Cellpop.Kernel.times;
          Checkpoint.mat_part kernel.Cellpop.Kernel.q;
          "basis";
          basis.Spline.Basis.name;
          string_of_int basis.Spline.Basis.size;
          hex basis.Spline.Basis.lo;
          hex basis.Spline.Basis.hi;
          "params";
          hex params.Cellpop.Params.mu_sst;
          hex params.Cellpop.Params.cv_sst;
          hex params.Cellpop.Params.mean_cycle_minutes;
          hex params.Cellpop.Params.cv_cycle;
          hex params.Cellpop.Params.v0;
          (match params.Cellpop.Params.volume_model with
          | Cellpop.Params.Linear -> "linear"
          | Cellpop.Params.Smooth -> "smooth");
          (match params.Cellpop.Params.initial_condition with
          | Cellpop.Params.Synchronized_swarmer -> "swarmer"
          | Cellpop.Params.Uniform_phase -> "uniform");
          "constraints";
          flag use_positivity ^ flag use_conservation ^ flag use_rate_continuity;
        ];
  }

let problem_for t ?sigmas measurements = Problem.with_data ?sigmas t.template measurements

(* ---------------- fault-isolated batch ---------------- *)

let gene_key t ?sigmas ~lambda ~measurements () =
  Checkpoint.finish_key
    (Checkpoint.feed_key t.key
       [
         "lambda";
         (match lambda with `Gcv -> "gcv" | `Fixed l -> "fixed:" ^ hex l);
         "gene";
         Checkpoint.vec_part measurements;
         "sigmas";
         (match sigmas with None -> "none" | Some s -> Checkpoint.vec_part s);
       ])

let solve_gene_result t ?sigmas ?(lambda = `Gcv) ?budget ~measurements () =
  match
    let problem = problem_for t ?sigmas measurements in
    match Result.bind t.shared_valid (fun () -> Problem.validate_data problem) with
    | Error e -> Error e
    | Ok () -> (
      (* A gene with its own σ row has its own weights, hence its own
         system, which its λ selection factors. *)
      let spectral = if Option.is_none sigmas then t.spectral else None in
      match Lambda.select_result problem ~method_:lambda ?spectral () with
      | Error e -> Error e
      | Ok lam ->
        let est = Solver.solve ?budget ~lambda:lam problem in
        if Solver.finite_estimate est then begin
          (* Batch genes go through the raw solve, not solve_robust, so
             the per-solve quality record is emitted here, only under an
             active sink. *)
          if Obs.Diag.enabled () then
            Obs.Span.with_ "quality.emit" (fun _ ->
                Quality.emit_solve ~problem ~fitted:est.Solver.fitted ~lambda:est.Solver.lambda
                  ~entry_lambda:lam ~rss:est.Solver.data_misfit ~degradation:0
                  ~active_positivity:est.Solver.active_positivity
                  ~qp_iterations:est.Solver.qp_iterations ());
          Ok est
        end
        else Error (Robust.Error.Non_finite { stage = "constrained QP solution" }))
  with
  | r -> r
  | exception Robust.Error.Error e -> Error e
  (* lint: allow R2 -- this is the per-gene fault-isolation boundary: the
     exception becomes a typed, journaled outcome instead of killing the
     batch *)
  | exception e -> Error (Robust.Error.of_exn e)

module Outcome = struct
  type t = {
    outcomes : (Solver.estimate, Robust.Error.t) result array;
    replayed : int;
    quality : (string * Quality.quantiles) list;
        (** per-gene quality quantiles over the successful solves —
            empty when nothing succeeded *)
  }

  let total t = Array.length t.outcomes

  let ok_count t =
    Array.fold_left (fun n -> function Ok _ -> n + 1 | Error _ -> n) 0 t.outcomes

  let failed_count t = total t - ok_count t
  let fully_ok t = failed_count t = 0

  let failures t =
    let acc = ref [] in
    Array.iteri
      (fun g -> function Ok _ -> () | Error e -> acc := (g, e) :: !acc)
      t.outcomes;
    List.rev !acc

  let class_counts t =
    let tally = Hashtbl.create 8 in
    List.iter
      (fun (_, e) ->
        let cls = Robust.Error.class_name e in
        Hashtbl.replace tally cls (1 + Option.value ~default:0 (Hashtbl.find_opt tally cls)))
      (failures t);
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) tally [])

  let estimates t =
    Array.map (function Ok est -> est | Error e -> Robust.Error.raise_error e) t.outcomes
end

let solve_all_result t ?sigmas ?(lambda = `Gcv) ?max_seconds ?max_iterations ?journal
    ?(block = 64) ?on_block ?progress ~measurements () =
  if block < 1 then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input { field = "block"; why = "must be >= 1" });
  let genes, n_m = Mat.dims measurements in
  (match sigmas with
  | Some s when Mat.dims s <> (genes, n_m) ->
    let rows, cols = Mat.dims s in
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         {
           field = "sigmas";
           why = Printf.sprintf "%dx%d for %dx%d measurements" rows cols genes n_m;
         })
  | Some _ | None -> ());
  let sigma_row g = Option.map (fun s -> Mat.row s g) sigmas in
  let keys =
    match journal with
    | None -> [||]
    | Some _ ->
      Array.init genes (fun g ->
          gene_key t ?sigmas:(sigma_row g) ~lambda ~measurements:(Mat.row measurements g) ())
  in
  let outcomes = Array.make genes None in
  let replayed = ref 0 in
  (match journal with
  | Some j ->
    let entries = Checkpoint.entries j in
    for g = 0 to genes - 1 do
      match Checkpoint.find entries ~gene:g ~key:keys.(g) with
      | Some e ->
        outcomes.(g) <- Some e.Checkpoint.outcome;
        incr replayed
      | None -> ()
    done
  | None -> ());
  let pending =
    Array.of_list
      (List.filter (fun g -> outcomes.(g) = None) (List.init genes (fun g -> g)))
  in
  (match progress with
  | Some p -> Obs.Progress.record_replayed p !replayed
  | None -> ());
  (* Fires on worker domains as genes finish; Progress is mutex-guarded
     and the callback only tallies, so determinism is untouched. *)
  let on_result _ res =
    match res with
    | Ok (Ok _) -> Obs.Progress.record_into progress ~ok:true ()
    | Ok (Error e) ->
      Obs.Progress.record_into progress ~cls:(Robust.Error.class_name e) ~ok:false ()
    | Error exn ->
      Obs.Progress.record_into progress
        ~cls:(Robust.Error.class_name (Robust.Error.of_exn exn))
        ~ok:false ()
  in
  let done_ = ref !replayed in
  let pos = ref 0 in
  while !pos < Array.length pending do
    let hi = Stdlib.min (Array.length pending) (!pos + block) in
    let idx = Array.sub pending !pos (hi - !pos) in
    (* Whole solves fan out per gene; a gene's inner λ sweep then finds
       the pool busy and runs inline (Parallel's nested fallback), which
       is the right granularity — genes outnumber domains long before
       candidates do. GCV is deterministic and genes are independent, so
       per-gene results depend on neither the fan-out nor the block
       boundaries. *)
    let results =
      Parallel.parallel_map_result ~chunk:1 ~on_result ~n:(Array.length idx) (fun j ->
          let g = idx.(j) in
          let budget =
            if max_seconds = None && max_iterations = None then None
            else Some (Robust.Budget.create ?max_seconds ?max_iterations ())
          in
          (* Diag records emitted inside key by gene id, so trace diff
             can join per-gene quality across two batch runs. *)
          Obs.Diag.with_solve (Printf.sprintf "gene:%d" g) (fun () ->
              solve_gene_result t ?sigmas:(sigma_row g) ~lambda ?budget
                ~measurements:(Mat.row measurements g) ()))
    in
    let fresh = ref [] in
    Array.iteri
      (fun j res ->
        let g = idx.(j) in
        let outcome =
          match res with Ok o -> o | Error exn -> Error (Robust.Error.of_exn exn)
        in
        outcomes.(g) <- Some outcome;
        if Option.is_some journal then
          fresh := { Checkpoint.gene = g; key = keys.(g); outcome } :: !fresh)
      results;
    (match journal with Some j -> Checkpoint.append j (List.rev !fresh) | None -> ());
    done_ := !done_ + Array.length idx;
    (match on_block with Some f -> f ~done_:!done_ ~total:genes | None -> ());
    pos := hi
  done;
  let outcomes = Array.map (function Some o -> o | None -> assert false) outcomes in
  (* Per-gene quality quantiles over the successful solves. Everything
     here is O(n) per gene on data already in hand (the runs test reuses
     the gene's own measurements/σ row), so the summary is always
     computed — genome-scale output should be auditable without a trace
     sink. *)
  let quality =
    let per_gene = ref [] in
    Array.iteri
      (fun g outcome ->
        match outcome with
        | Error _ -> ()
        | Ok (est : Solver.estimate) ->
          let standardized =
            Quality.standardized_residuals
              (problem_for t ?sigmas:(sigma_row g) (Mat.row measurements g))
              ~fitted:est.Solver.fitted
          in
          per_gene :=
            [
              ("rss", est.Solver.data_misfit);
              ("lambda", est.Solver.lambda);
              ("qp_iterations", float_of_int est.Solver.qp_iterations);
              ("active_positivity", float_of_int est.Solver.active_positivity);
              ("runs_z", Stats.runs_z standardized);
            ]
            :: !per_gene)
      outcomes;
    Quality.summarize (List.rev !per_gene)
  in
  Quality.publish ~prefix:"batch" quality;
  let outcome = { Outcome.outcomes; replayed = !replayed; quality } in
  Obs.Metrics.incr ~by:(float_of_int (Outcome.ok_count outcome)) "batch.genes_ok";
  Obs.Metrics.incr ~by:(float_of_int (Outcome.failed_count outcome)) "batch.genes_failed";
  Obs.Metrics.incr ~by:(float_of_int !replayed) "batch.genes_replayed";
  List.iter
    (fun (cls, n) ->
      Obs.Metrics.incr ~by:(float_of_int n) ("batch.failures." ^ cls))
    (Outcome.class_counts outcome);
  outcome

let solve_all t ?sigmas ?lambda ~measurements () =
  Outcome.estimates (solve_all_result t ?sigmas ?lambda ~measurements ())

let phases t = Array.copy t.template.Problem.kernel.Cellpop.Kernel.phases

let peak_phase t (estimate : Solver.estimate) =
  t.template.Problem.kernel.Cellpop.Kernel.phases.(Vec.argmax estimate.Solver.profile)

let classify_by_peak t estimates ~boundaries =
  let n_b = Array.length boundaries in
  for i = 0 to n_b - 2 do
    assert (boundaries.(i) < boundaries.(i + 1))
  done;
  Array.map
    (fun estimate ->
      let peak = peak_phase t estimate in
      let rec find i = if i >= n_b || peak < boundaries.(i) then i else find (i + 1) in
      find 0)
    estimates
