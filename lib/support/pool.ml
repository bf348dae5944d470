(* Work-stealing domain pool.  See the interface for the contract.

   Scheduling: the index range [0, n) is pre-split into one contiguous
   slice per worker.  A worker takes from the *front* of its own slice
   and, once empty, scans the other slices and steals from the *back*
   of the first non-empty one.  Slices are guarded by one mutex each —
   a take or steal is a couple of integer updates under an uncontended
   lock, which is noise next to any task this repo runs (a task
   compiles and interprets whole kernels).  No condition variables are
   needed: the task set is fixed at [map] entry, so a worker that finds
   every slice empty is done, not waiting.

   Determinism: the results array is indexed by input position and each
   cell is written by exactly one worker, so the output order never
   depends on the schedule.  Observability follows the same rule: each
   TASK runs under [Obs.isolated] and the shards merge in input index
   order at the join — per task, not per worker, because work stealing
   makes the worker->index assignment schedule-dependent while the index
   order is not.  Counters, remarks and span nesting are therefore the
   sequential run's at any job count; span timestamps stay wall-clock. *)

exception Nested_map

(* True while the current domain is executing a pool task (set in
   worker domains, and around the inline [~jobs:1] loop). *)
let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () =
  match Sys.getenv_opt "POOL_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------- slices *)

type slice = { lock : Mutex.t; mutable lo : int; mutable hi : int }
(* invariant: the slice owns indices [lo, hi) *)

let take_front (s : slice) =
  Mutex.lock s.lock;
  let r =
    if s.lo < s.hi then begin
      let i = s.lo in
      s.lo <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock s.lock;
  r

let steal_back (s : slice) =
  Mutex.lock s.lock;
  let r =
    if s.lo < s.hi then begin
      let i = s.hi - 1 in
      s.hi <- i;
      Some i
    end
    else None
  in
  Mutex.unlock s.lock;
  r

(* ---------------------------------------------------------------- map *)

(* The exception is caught inside the isolation, so a failing task's
   counters and remarks still merge. *)
let run_task f (tasks : 'a array) results i =
  (* each index is written by exactly one worker: no lock needed *)
  results.(i) <-
    Some
      (Obs.isolated (fun () ->
           match f tasks.(i) with v -> Ok v | exception e -> Error e))

let worker f tasks results (slices : slice array) (w : int) () =
  Domain.DLS.set in_task_key true;
  let jobs = Array.length slices in
  let rec own () =
    match take_front slices.(w) with
    | Some i ->
      run_task f tasks results i;
      own ()
    | None -> steal 1
  and steal k =
    if k < jobs then
      match steal_back slices.((w + k) mod jobs) with
      | Some i ->
        run_task f tasks results i;
        own () (* the victim may still be full; re-prefer our slice *)
      | None -> steal (k + 1)
  in
  own ()

let try_map ?jobs (f : 'a -> 'b) (xs : 'a list) : ('b, exn) result list =
  if Domain.DLS.get in_task_key then raise Nested_map;
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let jobs =
    max 1 (min n (match jobs with Some j -> j | None -> default_jobs ()))
  in
  if n = 0 then []
  else if jobs = 1 then begin
    (* inline: same task semantics (including nested-map rejection, which
       surfaces as a captured task error exactly as in a worker), no
       domains, recording straight into the caller's context *)
    Domain.DLS.set in_task_key true;
    let results =
      List.map
        (fun x -> match f x with v -> Ok v | exception e -> Error e)
        xs
    in
    Domain.DLS.set in_task_key false;
    results
  end
  else begin
    let results = Array.make n None in
    let slices =
      Array.init jobs (fun w ->
          { lock = Mutex.create (); lo = w * n / jobs; hi = (w + 1) * n / jobs })
    in
    let domains =
      Array.init jobs (fun w -> Domain.spawn (worker f tasks results slices w))
    in
    Array.iter Domain.join domains;
    (* List.init runs left to right: shards merge in input order *)
    List.init n (fun i ->
        match results.(i) with
        | Some (r, shard) ->
          Obs.merge shard;
          r
        | None -> Error (Failure "Pool: task never ran (pool bug)"))
  end

let map ?jobs f xs =
  let results = try_map ?jobs f xs in
  List.map (function Ok v -> v | Error e -> raise e) results
