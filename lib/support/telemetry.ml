(* Counters and timers over the per-domain observability context
   ({!Obs}).  See the interface for the contract.  Counters and timers
   live in separate hashtables keyed by name, so [reset] is two
   [Hashtbl.reset]s. *)

let incr ?(by = 1) name =
  let r = Obs.counter (Obs.cur ()) name in
  r := !r + by

let set_max name v =
  let r = Obs.counter (Obs.cur ()) name in
  if v > !r then r := v

let get name = Obs.get (Obs.cur ()) name

let counters () = Obs.counters (Obs.cur ())

let record_time name dt =
  let t = Obs.timer (Obs.cur ()) name in
  t.total <- t.total +. dt;
  t.count <- t.count + 1;
  Histogram.record t.hist dt

let time name f =
  let start = Unix.gettimeofday () in
  match f () with
  | result ->
    record_time name (Unix.gettimeofday () -. start);
    result
  | exception e ->
    record_time name (Unix.gettimeofday () -. start);
    raise e

let timer_total name =
  match Hashtbl.find_opt (Obs.cur ()).timers name with
  | Some t -> t.total
  | None -> 0.0

let timers () =
  Hashtbl.fold
    (fun name (t : Obs.timer) acc -> (name, t.total, t.count) :: acc)
    (Obs.cur ()).timers []
  |> List.sort compare

let reset () =
  let c = Obs.cur () in
  Hashtbl.reset c.counters;
  Hashtbl.reset c.timers

let snapshot () : Json.t =
  let ts =
    Hashtbl.fold (fun name t acc -> (name, t) :: acc) (Obs.cur ()).timers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Assoc
    [
      ( "counters",
        Json.Assoc (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())) );
      ( "timers",
        Json.Assoc
          (List.map
             (fun (n, (t : Obs.timer)) ->
               ( n,
                 Json.Assoc
                   [
                     ("total_s", Json.Float t.total);
                     ("count", Json.Int t.count);
                     ("histogram", Histogram.to_json t.hist);
                   ] ))
             ts) );
    ]

let capture f =
  let result, shard = Obs.isolated f in
  Obs.merge shard;
  (result, List.filter (fun (_, v) -> v <> 0) (Obs.counters shard))

let report () =
  let buf = Buffer.create 256 in
  let cs = counters () and ts = timers () in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 cs
    in
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width n v))
      cs
  end;
  if ts <> [] then begin
    Buffer.add_string buf "timers:\n";
    let width =
      List.fold_left (fun w (n, _, _) -> max w (String.length n)) 0 ts
    in
    List.iter
      (fun (n, total, count) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s %10.3f ms  (%d calls)\n" width n
             (total *. 1000.0) count))
      ts
  end;
  if cs = [] && ts = [] then Buffer.add_string buf "(no telemetry recorded)\n";
  Buffer.contents buf
