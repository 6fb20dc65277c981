open Numerics

let kfold_indices rng ~n ~k =
  assert (k >= 2 && k <= n);
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  Array.init k (fun fold ->
      (* Fold [fold] takes every k-th element, which balances sizes. *)
      let members = ref [] in
      for i = n - 1 downto 0 do
        if i mod k = fold then members := order.(i) :: !members
      done;
      Array.of_list !members)

let log_lambda_grid ~lo ~hi ~count =
  assert (count >= 1);
  if count = 1 then [| 10.0 ** lo |]
  else Array.map (fun e -> 10.0 ** e) (Vec.linspace lo hi count)
