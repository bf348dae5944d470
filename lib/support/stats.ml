(* Small numeric helpers used by the experiment harness. *)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
    let n = List.length xs in
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int n)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let speedup ~base ~opt = if opt = 0.0 then infinity else base /. opt
