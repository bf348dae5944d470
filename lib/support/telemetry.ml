(* Per-domain telemetry registry.  See the interface for the contract;
   the implementation notes here are about the few non-obvious choices:

   - counters and timers live in separate hashtables keyed by their
     fully qualified name, so [reset] is two [Hashtbl.reset]s;
   - the scope stack is a plain mutable list of prefixes; qualification
     happens at record time, so a counter bumped under two different
     scopes is two distinct registry entries;
   - the whole registry is domain-local (one shard per domain, allocated
     on first use through [Domain.DLS]), so recording never takes a
     lock: a pool worker writes only its own shard, and the shards are
     folded into the spawning domain's registry when the workers join
     ({!merge_joined}).  Single-domain programs see exactly the old
     process-global behaviour, because the main domain's shard *is* the
     registry;
   - JSON documents are built with the shared {!Json} module (the
     emitter used to live here and was extracted). *)

(* Re-exported with constructors so legacy [Telemetry.Assoc]-style users
   keep compiling; new code should use {!Json} directly. *)
type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

let json_to_string = Json.to_string

(* ----------------------------------------------------------- registry *)

(* Each timer carries a latency histogram alongside the running total,
   so every *.time key has distribution data, not just a mean.  The
   histogram is mutated by the owning domain only (the registry is
   domain-local) and crosses domains exclusively as copies inside
   shards. *)
type timer = {
  mutable total : float;
  mutable count : int;
  hist : Histogram.t;
}

type registry = {
  counter_tbl : (string, int ref) Hashtbl.t;
  timer_tbl : (string, timer) Hashtbl.t;
  mutable scope_stack : string list; (* innermost first *)
}

let fresh_registry () =
  {
    counter_tbl = Hashtbl.create 64;
    timer_tbl = Hashtbl.create 16;
    scope_stack = [];
  }

(* One registry per domain.  The key's initializer runs lazily the first
   time a domain records anything, so every spawned worker starts with
   an empty shard and the main domain keeps its registry for the whole
   process lifetime. *)
let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key fresh_registry

let cur () = Domain.DLS.get registry_key

let qualify reg name =
  match reg.scope_stack with
  | [] -> name
  | stack -> String.concat "." (List.rev stack) ^ "." ^ name

let counter_ref reg qname =
  match Hashtbl.find_opt reg.counter_tbl qname with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace reg.counter_tbl qname r;
    r

let incr ?(by = 1) name =
  let reg = cur () in
  let r = counter_ref reg (qualify reg name) in
  r := !r + by

let set_max name v =
  let reg = cur () in
  let r = counter_ref reg (qualify reg name) in
  if v > !r then r := v

let get name =
  match Hashtbl.find_opt (cur ()).counter_tbl name with
  | Some r -> !r
  | None -> 0

let counters () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) (cur ()).counter_tbl []
  |> List.sort compare

let timer_cell reg qname =
  match Hashtbl.find_opt reg.timer_tbl qname with
  | Some t -> t
  | None ->
    let t = { total = 0.0; count = 0; hist = Histogram.create () } in
    Hashtbl.replace reg.timer_tbl qname t;
    t

let record_time reg qname dt =
  let t = timer_cell reg qname in
  t.total <- t.total +. dt;
  t.count <- t.count + 1;
  Histogram.record t.hist dt

let time name f =
  let reg = cur () in
  let qname = qualify reg name in
  let start = Unix.gettimeofday () in
  match f () with
  | result ->
    record_time (cur ()) qname (Unix.gettimeofday () -. start);
    result
  | exception e ->
    record_time (cur ()) qname (Unix.gettimeofday () -. start);
    raise e

let timer_total name =
  match Hashtbl.find_opt (cur ()).timer_tbl name with
  | Some t -> t.total
  | None -> 0.0

let timers () =
  Hashtbl.fold
    (fun name t acc -> (name, t.total, t.count) :: acc)
    (cur ()).timer_tbl []
  |> List.sort compare

let with_scope name f =
  (* time under the *enclosing* qualification, then push for the body *)
  let reg = cur () in
  let qname = qualify reg name in
  let start = Unix.gettimeofday () in
  reg.scope_stack <- name :: reg.scope_stack;
  let finish () =
    (* re-fetch: an [isolated] inside the scope swapped registries *)
    let reg = cur () in
    (match reg.scope_stack with
    | s :: rest when s == name -> reg.scope_stack <- rest
    | _ -> () (* a reset inside the scope cleared the stack: fine *));
    record_time reg qname (Unix.gettimeofday () -. start)
  in
  match f () with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

let reset () =
  let reg = cur () in
  Hashtbl.reset reg.counter_tbl;
  Hashtbl.reset reg.timer_tbl;
  reg.scope_stack <- []

let snapshot_of_registry reg : json =
  let cs =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) reg.counter_tbl []
    |> List.sort compare
  in
  let ts =
    Hashtbl.fold (fun name t acc -> (name, t) :: acc) reg.timer_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Assoc
    [
      ("counters", Assoc (List.map (fun (n, v) -> (n, Int v)) cs));
      ( "timers",
        Assoc
          (List.map
             (fun (n, t) ->
               ( n,
                 Assoc
                   [
                     ("total_s", Float t.total);
                     ("count", Int t.count);
                     ("histogram", Histogram.to_json t.hist);
                   ] ))
             ts) );
    ]

let snapshot () : json = snapshot_of_registry (cur ())

let capture f =
  let before = counters () in
  let result = f () in
  let after = counters () in
  let old name =
    match List.assoc_opt name before with Some v -> v | None -> 0
  in
  let delta =
    List.filter_map
      (fun (name, v) -> if v <> old name then Some (name, v - old name) else None)
      after
  in
  (result, delta)

(* ------------------------------------------------------------- shards *)

(* A shard is an immutable snapshot of a registry: what one task or one
   pool worker recorded.  Shards cross domains by value, so merging
   never aliases live hashtables between domains. *)
type shard = {
  s_counters : (string * int) list;
  s_timers : (string * float * int * Histogram.t) list;
      (* histograms are copies: the shard owns them outright *)
}

let shard_of_registry reg : shard =
  {
    s_counters =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) reg.counter_tbl []
      |> List.sort compare;
    s_timers =
      Hashtbl.fold
        (fun name t acc ->
          (name, t.total, t.count, Histogram.copy t.hist) :: acc)
        reg.timer_tbl []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b);
  }

let shard_of_current () = shard_of_registry (cur ())

let empty_shard = { s_counters = []; s_timers = [] }

let shard_is_empty s = s.s_counters = [] && s.s_timers = []

let shard_counters s = s.s_counters

let shard_timers s =
  List.map (fun (name, total, count, _) -> (name, total, count)) s.s_timers

let shard_timer_histograms s =
  List.map (fun (name, _, _, h) -> (name, h)) s.s_timers

let isolated f =
  let saved = cur () in
  Domain.DLS.set registry_key (fresh_registry ());
  match f () with
  | result ->
    let shard = shard_of_current () in
    Domain.DLS.set registry_key saved;
    (result, shard)
  | exception e ->
    Domain.DLS.set registry_key saved;
    raise e

(* [set_max] counters — base name starting with "max_" — hold a maximum,
   not a sum: merging two shards (or a shard into a registry) must take
   the larger value, or parallel runs would report inflated "maxima". *)
let is_max_counter name =
  let base =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.length base >= 4 && String.sub base 0 4 = "max_"

let merge_counter reg (name, v) =
  let r = counter_ref reg name in
  if is_max_counter name then (if v > !r then r := v) else r := !r + v

let merge_shard (s : shard) =
  let reg = cur () in
  List.iter (merge_counter reg) s.s_counters;
  List.iter
    (fun (name, total, count, hist) ->
      let t = timer_cell reg name in
      t.total <- t.total +. total;
      t.count <- t.count + count;
      Histogram.merge_into ~into:t.hist hist)
    s.s_timers

let merge_joined (shards : shard list) =
  (* Parallel-join semantics: the shards ran concurrently, so counters
     sum (work is work) but a timer's contribution to the parent is the
     *maximum* shard total — the critical path — while invocation
     counts still sum.  Summing totals across workers would report more
     seconds than the join took on the wall clock. *)
  let reg = cur () in
  List.iter (fun s -> List.iter (merge_counter reg) s.s_counters) shards;
  (* Histograms sum even here: each sample is one real invocation, so
     the distribution aggregates across workers — only the scalar
     total takes the critical-path maximum. *)
  let maxima : (string, float * int * Histogram.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun s ->
      List.iter
        (fun (name, total, count, hist) ->
          match Hashtbl.find_opt maxima name with
          | Some (mx, cnt, h) ->
            Histogram.merge_into ~into:h hist;
            Hashtbl.replace maxima name (Float.max mx total, cnt + count, h)
          | None ->
            Hashtbl.replace maxima name (total, count, Histogram.copy hist))
        s.s_timers)
    shards;
  Hashtbl.iter
    (fun name (mx, count, hist) ->
      let t = timer_cell reg name in
      t.total <- t.total +. mx;
      t.count <- t.count + count;
      Histogram.merge_into ~into:t.hist hist)
    maxima

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
