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

let kfold_score ~rng ~k ~n ~fit_on ~predict_error lambda =
  let folds = kfold_indices rng ~n ~k in
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
