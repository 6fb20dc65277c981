let segments path =
  String.split_on_char '/' path
  |> List.filter (fun s -> not (String.equal s "") && not (String.equal s "."))

(* Every remainder of [path] after one of its "lib" directory segments. *)
let after_lib path =
  let rec go acc = function
    | "lib" :: (_ :: _ as rest) -> go (rest :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  go [] (segments path)

let in_lib path = after_lib path <> []

let rec is_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | p :: prefix, s :: l -> String.equal p s && is_prefix prefix l
  | _ :: _, [] -> false

let under entries path =
  List.exists
    (fun rest -> List.exists (fun e -> is_prefix (segments e) rest) entries)
    (after_lib path)

let user_trees = [ "bin"; "bench"; "examples"; "perfbench" ]

let in_user_tree path =
  (not (in_lib path)) && List.exists (fun seg -> List.mem seg user_trees) (segments path)
