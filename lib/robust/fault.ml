open Numerics

type 'a t = {
  name : string;
  inject : Rng.t -> 'a -> 'a;
}

let apply f rng x = f.inject rng x

let pick rng index v =
  match index with Some i -> i | None -> Rng.int rng (Array.length v)

let map_at name ?index f =
  {
    name;
    inject =
      (fun rng v ->
        let v = Array.copy v in
        let i = pick rng index v in
        v.(i) <- f v.(i);
        v);
  }

let nan_at ?index () = map_at "NaN entry" ?index (fun _ -> Float.nan)
let zero_at ?index () = map_at "zeroed entry" ?index (fun _ -> 0.0)

(* ---------------- matrix (gene-batch) faults ---------------- *)

let choose_rows rng ~k ~rows =
  if k < 0 || k > rows then
    Error.raise_error (Error.Invalid_input { field = "k"; why = "need 0 <= k <= rows" });
  (* Partial Fisher-Yates over the index vector: k distinct draws. *)
  let idx = Array.init rows (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (rows - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  let chosen = Array.sub idx 0 k in
  Array.sort compare chosen;
  chosen

let corrupt_rows ~rows fault =
  {
    name = Printf.sprintf "%s in %d rows" fault.name (Array.length rows);
    inject =
      (fun rng m ->
        let m = Mat.copy m in
        Array.iter (fun g -> Mat.set_row m g (fault.inject rng (Mat.row m g))) rows;
        m);
  }

let poison_sigma_rows ~rows = corrupt_rows ~rows (zero_at ())

exception Injected_crash of { done_ : int; total : int }

let crash_after ~genes ~done_ ~total =
  if done_ >= genes then raise (Injected_crash { done_; total })
