(* Structured JSON-lines event log.  See the .mli for the schema and
   the determinism contract; DESIGN §16 for the event vocabulary.

   The sink is one global mutable cell behind a mutex.  That is the
   right shape here: a log is a process-wide side channel (like the
   trace stream), opened once by the driver, and per-event cost is a
   handful of allocations + one [output_string] + [flush] — the flush
   dominates, and serializing emitters keeps lines whole.  Workers in
   the pool do not emit on the hot path anyway: access records are
   written by the service coordinator, in request order, after each
   batch merges. *)

type level = Debug | Info

let level_rank = function Debug -> 0 | Info -> 1
let level_name = function Debug -> "debug" | Info -> "info"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | _ -> None

let parse_spec spec =
  let fallback = Ok (spec, Info) in
  match String.rindex_opt spec '=' with
  | None -> fallback
  | Some i -> (
    let path = String.sub spec 0 i in
    let suffix = String.sub spec (i + 1) (String.length spec - i - 1) in
    match level_of_string suffix with
    | Some lvl ->
      if path = "" then Error "empty log path before '='" else Ok (path, lvl)
    | None ->
      (* The suffix is not a level name, so the '=' is part of the path;
         only an empty suffix is rejected. *)
      if suffix = "" then Error "empty level after '='" else fallback)

type sink = { oc : out_channel; threshold : level; opened_at : float }

let sink : sink option ref = ref None
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled lvl =
  with_lock (fun () ->
      match !sink with
      | None -> false
      | Some s -> level_rank lvl >= level_rank s.threshold)

(* Emit assuming the lock is held and the level passed the threshold. *)
let write_locked s lvl event fields timing =
  let now = Unix.gettimeofday () -. s.opened_at in
  let line =
    Json.Assoc
      ([ ("event", Json.String event); ("level", String (level_name lvl)) ]
      @ fields
      @ [ ("timing", Json.Assoc (timing @ [ ("ts_s", Json.Float now) ])) ])
  in
  output_string s.oc (Json.to_string ~minify:true line);
  output_char s.oc '\n';
  flush s.oc

let emit ?(timing = []) lvl event fields =
  with_lock (fun () ->
      match !sink with
      | None -> ()
      | Some s ->
        if level_rank lvl >= level_rank s.threshold then
          write_locked s lvl event fields timing)

let close_locked () =
  match !sink with
  | None -> ()
  | Some s ->
    (try flush s.oc with Sys_error _ -> ());
    (try close_out s.oc with Sys_error _ -> ());
    sink := None

let open_log ~path ~level =
  with_lock (fun () ->
      close_locked ();
      let oc = open_out path in
      let s = { oc; threshold = level; opened_at = Unix.gettimeofday () } in
      sink := Some s;
      write_locked s Info "log-open"
        [
          ("schema", Json.Int Version.log_schema);
          ("tool", String Version.tool);
          ("threshold", String (level_name level));
        ]
        [])

let close () = with_lock close_locked
