type kind = Counter | Gauge | Histogram

type snapshot = { name : string; kind : kind; fields : (string * float) list }

(* Histograms keep every sample (amortized-doubling buffer) so snapshot
   percentiles are exact rather than bucket approximations. Memory is
   O(observations); the instrumented call sites record per-solve or
   per-iteration scalars, so counts stay in the thousands. *)
type hist = {
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  mutable samples : float array;
}

let on = ref false

let enable () = on := true
let disable () = on := false

(* The registries are process-global and reachable from worker domains
   (e.g. per-candidate counters under a parallel λ sweep); every access
   path locks. The [!on] fast path stays unlocked so disabled metrics
   cost one load. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters : (string, float ref) Hashtbl.t = Hashtbl.create 16
let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16
let histograms : (string, hist) Hashtbl.t = Hashtbl.create 16

let reset () =
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)

let cell table name =
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
    let c = ref 0.0 in
    Hashtbl.replace table name c;
    c

let incr ?(by = 1.0) name =
  if !on then
    locked (fun () ->
        let c = cell counters name in
        c := !c +. by)

let set name v = if !on then locked (fun () -> cell gauges name := v)

let observe name v =
  if !on then
    locked @@ fun () ->
    let h =
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          { count = 0; sum = 0.0; mn = Float.infinity; mx = Float.neg_infinity;
            samples = Array.make 16 0.0 }
        in
        Hashtbl.replace histograms name h;
        h
    in
    if h.count = Array.length h.samples then begin
      let grown = Array.make (2 * h.count) 0.0 in
      Array.blit h.samples 0 grown 0 h.count;
      h.samples <- grown
    end;
    h.samples.(h.count) <- v;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    h.mn <- Float.min h.mn v;
    h.mx <- Float.max h.mx v

(* Nearest-rank percentile over the recorded samples ([q] in [0,1]). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  end

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let snapshot () =
  locked @@ fun () ->
  let scalars kind table =
    Hashtbl.fold (fun name c acc -> { name; kind; fields = [ ("value", !c) ] } :: acc) table []
  in
  let hists =
    Hashtbl.fold
      (fun name h acc ->
        let sorted = Array.sub h.samples 0 h.count in
        Array.sort Float.compare sorted;
        {
          name;
          kind = Histogram;
          fields =
            [
              ("count", float_of_int h.count);
              ("sum", h.sum);
              ("mean", (if h.count = 0 then Float.nan else h.sum /. float_of_int h.count));
              ("min", h.mn);
              ("max", h.mx);
              ("p50", percentile sorted 0.50);
              ("p90", percentile sorted 0.90);
              ("p99", percentile sorted 0.99);
            ];
        }
        :: acc)
      histograms []
  in
  List.sort
    (fun a b ->
      match String.compare (kind_name a.kind) (kind_name b.kind) with
      | 0 -> String.compare a.name b.name
      | c -> c)
    (scalars Counter counters @ scalars Gauge gauges @ hists)

let events () =
  List.map
    (fun s ->
      Export.Metric { Export.metric_name = s.name; kind = kind_name s.kind; fields = s.fields })
    (snapshot ())

let output oc =
  Export.output_metrics oc
    (List.map
       (fun s -> { Export.metric_name = s.name; kind = kind_name s.kind; fields = s.fields })
       (snapshot ()))
