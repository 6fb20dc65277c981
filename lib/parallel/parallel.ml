(* A small domain pool. Design constraints, in order:

   1. Determinism: the chunk schedule of a job depends only on (n, chunk),
      never on how many domains execute it, so callers can derive one RNG
      substream per chunk and get bit-identical results at every jobs
      setting.
   2. No surprises under failure: the first exception cancels the job's
      unclaimed chunks and is re-raised (with backtrace) in the submitting
      domain after in-flight chunks drain; the pool remains usable.
   3. No deadlocks under nesting: a submission while the pool is busy
      (reentrant, or from a worker domain) runs inline instead.

   One job runs at a time. Workers and the submitting domain claim chunks
   from a shared counter under the pool mutex and execute them unlocked. *)

(* This library is deliberately zero-dependency, and rule R7 keeps raw
   clocks out of it — so chunk telemetry is injected, not imported: the
   CLI installs a probe built from Obs.Clock/Obs.Export when tracing is
   on. With no probe installed every chunk costs one extra load+branch.
   Reads happen on worker domains against a plain ref: installation must
   precede the fan-out (the CLI installs before any job is submitted),
   and the probe's callbacks must be domain-safe and must not raise — a
   raise here would be indistinguishable from a chunk failure. *)
module Probe = struct
  type t = {
    now : unit -> float;
    record : domain:int -> lo:int -> hi:int -> start_s:float -> stop_s:float -> unit;
  }

  let active : t option ref = ref None

  let install p = active := Some p
  let uninstall () = active := None
end

(* Only the outermost chunk on a domain is recorded: a nested submission
   (a gene's inner λ sweep finding the pool busy) re-enters run_inline
   *inside* its parent chunk, and timing those too would double-count the
   domain's busy time — per-domain busy fractions must stay <= 1. *)
let in_probed_chunk : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let probe_chunk body ~lo ~hi =
  match !Probe.active with
  | None -> body ~lo ~hi
  | Some p ->
    let nested = Domain.DLS.get in_probed_chunk in
    if !nested then body ~lo ~hi
    else begin
      nested := true;
      let start_s = p.Probe.now () in
      Fun.protect
        ~finally:(fun () ->
          nested := false;
          p.Probe.record
            ~domain:(Domain.self () :> int)
            ~lo ~hi ~start_s ~stop_s:(p.Probe.now ()))
        (fun () -> body ~lo ~hi)
    end

module Pool = struct
  type job = {
    body : lo:int -> hi:int -> unit;
    chunk : int;
    n : int;
    n_chunks : int;
    mutable next : int;  (* first unclaimed chunk *)
    mutable remaining : int;  (* chunks not yet completed *)
    mutable failure : (exn * Printexc.raw_backtrace) option;
  }

  type t = {
    size : int;
    mutex : Mutex.t;
    work : Condition.t;  (* signalled when a job is installed or on stop *)
    done_ : Condition.t;  (* signalled when a job completes *)
    mutable job : job option;
    mutable busy : bool;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
    mutable spawned : bool;  (* workers are created on first dispatch *)
  }

  let create ~domains =
    (* lint: allow R10 -- programmer-error precondition on a static pool size;
       this zero-dependency layer sits below lib/robust and cannot raise its
       typed error *)
    if domains < 1 then invalid_arg "Parallel.Pool.create: domains must be >= 1";
    {
      size = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      job = None;
      busy = false;
      stop = false;
      workers = [];
      spawned = false;
    }

  let domains t = t.size

  (* Fixed fan-out target: enough chunks that uneven per-chunk cost still
     balances across domains, few enough that claiming stays cheap. Must
     not depend on the pool size (determinism contract). *)
  let default_chunk n = Stdlib.max 1 (n / 64)

  let chunk_size ~chunk ~n =
    let c = match chunk with Some c -> c | None -> default_chunk n in
    if c < 1 then invalid_arg "Parallel: chunk must be >= 1";
    c

  let run_inline ~chunk ~n body =
    let c = ref 0 in
    while !c * chunk < n do
      let lo = !c * chunk in
      let hi = Stdlib.min n (lo + chunk) in
      probe_chunk body ~lo ~hi;
      incr c
    done

  (* Claim and execute chunks of [job] until none are unclaimed. Called
     with [t.mutex] held; returns with it held. *)
  let drain t job =
    while job.next < job.n_chunks do
      let c = job.next in
      job.next <- c + 1;
      Mutex.unlock t.mutex;
      let failure =
        let lo = c * job.chunk in
        let hi = Stdlib.min job.n (lo + job.chunk) in
        match probe_chunk job.body ~lo ~hi with
        | () -> None
        (* lint: allow R2 -- captured with its backtrace and re-raised by
           [parallel_for] in the submitting domain once the job drains *)
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mutex;
      (match (failure, job.failure) with
      | Some _, None ->
        job.failure <- failure;
        (* Cancel the unclaimed tail; chunks already in flight on other
           domains finish normally. *)
        job.remaining <- job.remaining - (job.n_chunks - job.next);
        job.next <- job.n_chunks
      | _ -> ());
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then begin
        t.job <- None;
        Condition.broadcast t.done_
      end
    done

  let rec worker_loop t =
    match t.job with
    | Some job when job.next < job.n_chunks ->
      drain t job;
      worker_loop t
    | _ ->
      if not t.stop then begin
        Condition.wait t.work t.mutex;
        worker_loop t
      end

  let worker t =
    Mutex.lock t.mutex;
    worker_loop t;
    Mutex.unlock t.mutex

  (* With [t.mutex] held. *)
  let ensure_workers t =
    if not t.spawned then begin
      t.spawned <- true;
      t.workers <- List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker t))
    end

  let parallel_for t ?chunk ~n body =
    if n > 0 then begin
      let chunk = chunk_size ~chunk ~n in
      let n_chunks = (n + chunk - 1) / chunk in
      if t.size = 1 || n_chunks = 1 then run_inline ~chunk ~n body
      else begin
        Mutex.lock t.mutex;
        if t.busy || t.stop then begin
          (* Nested (or post-shutdown) submission: same chunk schedule,
             executed inline — results are identical by construction. *)
          Mutex.unlock t.mutex;
          run_inline ~chunk ~n body
        end
        else begin
          t.busy <- true;
          ensure_workers t;
          let job =
            { body; chunk; n; n_chunks; next = 0; remaining = n_chunks; failure = None }
          in
          t.job <- Some job;
          Condition.broadcast t.work;
          drain t job;
          while job.remaining > 0 do
            Condition.wait t.done_ t.mutex
          done;
          t.busy <- false;
          Mutex.unlock t.mutex;
          match job.failure with
          (* lint: allow R10 R11 -- deterministic re-raise of the lowest-index
             failing chunk's own exception; what a task can raise is already
             tracked at the caller through its closure *)
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ()
        end
      end
    end

  let parallel_map t ?chunk ~n f =
    if n <= 0 then [||]
    else begin
      let out = Array.make n None in
      parallel_for t ?chunk ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            out.(i) <- Some (f i)
          done);
      Array.map (function Some v -> v | None -> assert false) out
    end

  let parallel_map_result t ?chunk ?on_result ~n f =
    if n <= 0 then [||]
    else begin
      let out = Array.make n None in
      parallel_for t ?chunk ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            let r =
              match f i with
              | v -> Ok v
              (* lint: allow R2 -- per-index fault isolation is this
                 function's contract: the exception is returned in slot i
                 as a value, never swallowed *)
              | exception e -> Error e
            in
            out.(i) <- Some r;
            (* Fires on the executing domain, concurrently with other
               chunks: the callback must be domain-safe and must not
               raise (a raise would read as a chunk failure and cancel
               the job). Pure aggregation only — results are already
               committed to their slots. *)
            match on_result with Some g -> g i r | None -> ()
          done);
      Array.map (function Some v -> v | None -> assert false) out
    end

  let busy t =
    Mutex.lock t.mutex;
    let b = t.busy in
    Mutex.unlock t.mutex;
    b

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join ws
end

(* ---------------- the global default pool ---------------- *)

(* Guards [requested]/[current]: [default ()] can be reached from worker
   domains through nested library calls. *)
let state_mutex = Mutex.create ()

let requested : int option ref = ref None
let current : Pool.t option ref = ref None

let env_jobs () =
  match Sys.getenv_opt "DECONV_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let jobs () =
  match !requested with
  | Some n -> n
  | None -> (
    match env_jobs () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())

let set_jobs n =
  (* lint: allow R10 -- programmer-error precondition with a test-pinned
     message; this zero-dependency layer sits below lib/robust and cannot
     raise its typed error *)
  if n < 1 then invalid_arg "Parallel.set_jobs: jobs must be >= 1";
  Mutex.lock state_mutex;
  (* Resizing swaps (and shuts down) the default pool on next access;
     doing that under a running job would orphan its unclaimed chunks.
     The documented contract is now enforced instead of being silent
     undefined behavior. *)
  let in_flight = match !current with Some p -> Pool.busy p | None -> false in
  if in_flight then begin
    Mutex.unlock state_mutex;
    (* lint: allow R10 R11 -- contract violation with a test-pinned message:
       resizing the pool mid-job is refused, never performed; below lib/robust *)
    invalid_arg "Parallel.set_jobs: parallel work is in flight"
  end;
  requested := Some n;
  Mutex.unlock state_mutex

let default () =
  Mutex.lock state_mutex;
  let pool =
    match !current with
    | Some p when Pool.domains p = jobs () -> p
    | prev ->
      (match prev with Some p -> Pool.shutdown p | None -> ());
      let p = Pool.create ~domains:(jobs ()) in
      current := Some p;
      p
  in
  Mutex.unlock state_mutex;
  pool

(* Join the workers on exit so the process never terminates with live
   domains blocked on the pool's condition variable. *)
let () =
  at_exit (fun () ->
      Mutex.lock state_mutex;
      let p = !current in
      current := None;
      Mutex.unlock state_mutex;
      match p with Some p -> Pool.shutdown p | None -> ())

let parallel_for ?chunk ~n body = Pool.parallel_for (default ()) ?chunk ~n body
let parallel_map ?chunk ~n f = Pool.parallel_map (default ()) ?chunk ~n f

let parallel_map_result ?chunk ?on_result ~n f =
  Pool.parallel_map_result (default ()) ?chunk ?on_result ~n f
