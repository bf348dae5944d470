(* The compile-service loop (DESIGN §15): take {!Protocol} lines from a
   channel or a Unix socket, fan distinct compiles across the
   work-stealing {!Fgv_support.Pool}, answer from the content-addressed
   {!Cache} when the key is already resolved.

   Determinism contract: for a fixed request sequence the response byte
   stream is identical at any [--jobs] count and whatever the cache has
   absorbed, because

   - each compile runs in an isolated observability context and a
     remark collector, so artifacts are pure functions of the request;
   - compile shards merge back in request order, never join order;
   - cache recency/eviction is driven only from the coordinating domain,
     in request order;
   - responses carry no cache metadata and no timestamps.

   Hit accounting (the only place cached and fresh diverge, and it is
   out-of-band): a request whose key is already resolved in the cache is
   a {e hit}; a duplicate of an earlier request in the same batch is
   {e coalesced} (one compile serves all copies, but the cache cannot
   take credit); everything else is a {e miss}.  So
   hits + coalesced + misses = requests.  Every count lives in one
   observability context the service owns: each batch runs within it,
   and each event bumps exactly one of its counters. *)

module J = Fgv_support.Json
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module H = Fgv_support.Histogram
module Ev = Fgv_support.Eventlog
module Pool = Fgv_support.Pool
module Version = Fgv_support.Version
module Compile = Fgv_frontend.Compile
module P = Protocol

type t = {
  cache : Cache.t;
  jobs : int;
  started : float;  (** wall clock at {!create}, for metrics uptime *)
  h_request : H.t;  (** per-request service latency (coordinator-only) *)
  h_batch : H.t;  (** whole-batch wall time (coordinator-only) *)
  obs : Obs.t;
      (** the service's ledger: its counters, and everything its
          compiles record *)
  fp_by_name : (string, string) Hashtbl.t;
      (** kernel name -> unit key of its last compiled content *)
}

let create ?(jobs = Pool.default_jobs ()) ?cache_max () : t =
  {
    cache = Cache.create ?max_entries:cache_max ();
    jobs = max 1 jobs;
    started = Unix.gettimeofday ();
    h_request = H.create ();
    h_batch = H.create ();
    obs = Obs.create ();
    fp_by_name = Hashtbl.create 64;
  }

(* A counter of the service's ledger, 0 if it was never bumped. *)
let count (t : t) name = Obs.get t.obs name

(* ----------------------------------------------------------- compiling *)

(* One cold per-kernel compile, from the already-parsed declaration,
   through {!Fgv_frontend.Compile.fdecl}: the request's restrict setting
   and resolved pipeline, then the optional C lowering.  Runs in a pool
   worker, in an isolated observability context whose counters are
   exactly this compile's; the context then merges into the worker's.
   Remarks are collected rather than streamed: they belong to the
   artifact.  The artifact is encoded here, once, into the wire form the
   cache keeps and every reply splices. *)
let compile_unit (rq : P.request) (apply : Fgv_pssa.Ir.func -> unit)
    (fd : Fgv_frontend.Ast.fdecl) : (P.artifact, string) result =
  let compiled, shard =
    Obs.isolated (fun () ->
        Tm.incr "service.compiles";
        match
          Obs.collect_remarks (fun () ->
              Compile.fdecl ~restrict:(not rq.P.rq_no_restrict) apply fd)
        with
        | Error e, _ -> Error (Compile.message e)
        | Ok f, remarks ->
          Ok
            ( f.Fgv_pssa.Ir.fname,
              Fgv_pssa.Printer.to_string f,
              remarks,
              if rq.P.rq_emit_c then
                Some (P.checked_c ~heap:rq.P.rq_heap (Fgv_cfg.Lower.lower f))
              else None ))
  in
  Obs.merge shard;
  Result.map
    (fun (func, ir, remarks, c) ->
      P.encode_artifact ~func ~ir
        ~remarks:(List.map Tr.remark_json remarks)
        ~c ~counters:(Obs.counters shard))
    compiled

(* ------------------------------------------------------------- batches *)

(* Split a request into its resolved pipeline and its top-level
   kernels, each with its own cache sub-key, in source order — or the
   error that answers the whole request at classification (never
   cached, no unit asked): the frontend's lex or parse error, else an
   unknown pipeline. *)
let split_units (rq : P.request) :
    ( (Fgv_pssa.Ir.func -> unit) * (Fgv_frontend.Ast.fdecl * string) list,
      string )
    result =
  match Compile.units rq.P.rq_source with
  | Error e -> Error (Compile.message e)
  | Ok units ->
    let key (fd, slice) = (fd, Cache.unit_key rq slice) in
    match Fgv_passes.Pipelines.resolve rq.P.rq_pipeline with
    | Ok apply -> Ok ((fun f -> apply f), List.map key units)
    | Error e -> Error e

let units_of = function Ok (_, units) -> units | Error _ -> []

type resolution =
  | Hit of P.artifact * float
      (** artifact grabbed at classification, before any insert can
          evict it, plus the lookup's wall seconds *)
  | Await of [ `Miss | `Coalesced ]

(* Outcome slug for access-log records and the
   [service.requests.<outcome>] counter.  A multi-unit request reports
   the most expensive outcome any of its units had: one recompiled
   kernel makes the request a miss however many siblings hit.  A
   request with no units (it was answered at classification) is a
   miss. *)
let request_outcome (units : resolution list) : string =
  if
    List.is_empty units
    || List.exists (function Await `Miss -> true | _ -> false) units
  then "miss"
  else if List.exists (function Await `Coalesced -> true | _ -> false) units
  then "coalesced"
  else "hit"

let handle_batch (t : t) (reqs : P.request list) : P.response list =
  Obs.within t.obs @@ fun () ->
  Tm.incr "service.batches";
  let batch_start = Unix.gettimeofday () in
  let seq_base = count t "service.requests" in
  (* seq of the i-th request of this batch, monotonic per service *)
  let seq i = seq_base + i + 1 in
  let keyed = List.map (fun rq -> (rq, split_units rq)) reqs in
  (* Classify every unit in request order; collect distinct unresolved
     keys in first-occurrence order (tagged with their request seq so
     worker spans can carry it).  All cache touches happen here on the
     coordinating domain, so recency and eviction stay deterministic at
     any job count. *)
  let pending = ref [] in
  let pending_set = Hashtbl.create 16 in
  let plan =
    List.mapi
      (fun i (rq, split) ->
        Tm.incr "service.requests";
        Tr.with_span ~cat:"service"
          ~args:[ ("seq", J.Int (seq i)) ]
          "service.lookup"
          (fun () ->
            match split with
            | Error _ -> []
            | Ok (apply, units) ->
              List.map
                (fun (fd, key) ->
                  let t0 = Unix.gettimeofday () in
                  match Cache.find t.cache key with
                  | Some a ->
                    let dt = Unix.gettimeofday () -. t0 in
                    Tm.incr "service.cache.hits";
                    Tr.remark (Tr.anchor a.P.ar_func)
                      (Tr.Cache_hit { key; pipeline = rq.P.rq_pipeline });
                    Hit (a, dt)
                  | None ->
                    if Hashtbl.mem pending_set key then begin
                      Tm.incr "service.cache.coalesced";
                      Await `Coalesced
                    end
                    else begin
                      Tm.incr "service.cache.misses";
                      (* an edit: this kernel name was compiled before,
                         under different content/flags *)
                      let name = fd.Fgv_frontend.Ast.fdname in
                      (match Hashtbl.find_opt t.fp_by_name name with
                      | Some old_key when old_key <> key ->
                        Tm.incr "service.incremental.invalidated"
                      | _ -> ());
                      Hashtbl.replace t.fp_by_name name key;
                      Hashtbl.add pending_set key ();
                      pending := (rq, apply, fd, key, seq i) :: !pending;
                      Await `Miss
                    end)
                units))
      keyed
  in
  (* Compile the distinct misses in parallel, each in an isolated
     observability context whose counters become the artifact's.  The
     shard merges back inside the compile's span, so its pass spans nest
     there, and the artifact is encoded there too; the pool then merges
     its tasks in request order, so the service's counters are
     deterministic at any job count.  Each compile's wall seconds ride
     back with the result for the access log (a coalesced duplicate
     shares the one compile's duration). *)
  let fresh = Hashtbl.create 16 in
  (match List.rev !pending with
  | [] -> ()
  | pending ->
    let compiled =
      Pool.map ~jobs:t.jobs
        (fun (rq, apply, fd, key, sq) ->
          let t0 = Unix.gettimeofday () in
          let result =
            Tr.with_span ~cat:"service"
              ~args:
                [ ("seq", J.Int sq); ("pipeline", J.String rq.P.rq_pipeline) ]
              "service.compile"
              (fun () -> compile_unit rq apply fd)
          in
          (key, result, Unix.gettimeofday () -. t0))
        pending
    in
    List.iter
      (fun (key, result, dur) ->
        Hashtbl.replace fresh key (result, dur);
        match result with
        | Ok a -> Cache.insert t.cache key a
        | Error _ -> ())
      compiled);
  (* Answer in request order, units in source order.  A request whose
     units all compiled answers [Compiled] (one unit, the historical
     flat encoding) or [Compiled_many]; any failed unit fails the whole
     request with the first unit's error — partial translation units
     would be unanchorable by position.  Failed compiles are not
     cached, but every same-batch duplicate shares the one error. *)
  let unit_result key = function
    | Hit (a, _) -> Ok a
    | Await _ -> (
      match Hashtbl.find_opt fresh key with
      | Some (r, _) -> r
      | None -> Error "internal: compile lost")
  in
  let responses =
    List.map2
      (fun (rq, split) resolutions ->
        let results =
          match split with
          | Error e -> [ Error e ]
          | Ok (_, units) ->
            List.map2 (fun (_, key) r -> unit_result key r) units resolutions
        in
        match
          List.find_opt (function Error _ -> true | Ok _ -> false) results
        with
        | Some (Error e) ->
          Tm.incr "service.errors";
          P.Failed { id = rq.P.rq_id; error = e }
        | _ -> (
          match List.map Result.get_ok results with
          | [ a ] -> P.Compiled { id = rq.P.rq_id; artifact = a }
          | artifacts -> P.Compiled_many { id = rq.P.rq_id; artifacts }))
      keyed plan
  in
  (* Request-level hit accounting: unchanged semantics for the
     single-kernel sources every pre-batching client sends (one unit =
     one request), and hits + coalesced + misses = requests always. *)
  List.iter
    (fun resolutions ->
      Tm.incr ("service.requests." ^ request_outcome resolutions))
    plan;
  (* Access log + latency histograms, in request order, coordinator
     only — the event file's line order matches seq at any job count.
     Every field except the [timing] member is a pure function of the
     request stream (DESIGN §16); a coalesced request reports its
     provider's compile duration, a multi-unit request the sum of its
     units'. *)
  let unit_duration key = function
    | Hit (_, dt) -> dt
    | Await _ -> (
      match Hashtbl.find_opt fresh key with Some (_, d) -> d | None -> 0.0)
  in
  let duration_of units resolutions =
    List.fold_left2
      (fun acc (_, key) r -> acc +. unit_duration key r)
      0.0 units resolutions
  in
  List.iteri
    (fun i ((rq, split), (resolutions, response)) ->
      let units = units_of split in
      let dur = duration_of units resolutions in
      H.record t.h_request dur;
      let outcome = request_outcome resolutions in
      let key = match units with (_, k) :: _ -> k | [] -> "" in
      if Ev.enabled Ev.Info then
        Ev.emit Ev.Info "access"
          ([
             ("seq", J.Int (seq i));
             ("outcome", String outcome);
             ("pipeline", String rq.P.rq_pipeline);
             ("key", String key);
           ]
          @ (match units with
            | _ :: _ :: _ -> [ ("units", J.Int (List.length units)) ]
            | _ -> [])
          @
          match response with
          | P.Compiled { artifact = a; _ } ->
            [
              ("ok", J.Bool true);
              ("function", String a.P.ar_func);
              ("remarks", Int a.P.ar_remark_count);
              ("counters", Int a.P.ar_counter_count);
            ]
          | P.Compiled_many { artifacts; _ } ->
            let sum count = List.fold_left (fun n a -> n + count a) 0 in
            [
              ("ok", J.Bool true);
              ( "function",
                String
                  (String.concat ","
                     (List.map (fun a -> a.P.ar_func) artifacts)) );
              ("remarks", Int (sum (fun a -> a.P.ar_remark_count) artifacts));
              ( "counters",
                Int (sum (fun a -> a.P.ar_counter_count) artifacts) );
            ]
          | P.Failed { error; _ } ->
            [ ("ok", J.Bool false); ("error", String error) ])
          ~timing:[ ("duration_s", J.Float dur) ])
    (List.combine keyed (List.combine plan responses));
  let batch_dur = Unix.gettimeofday () -. batch_start in
  H.record t.h_batch batch_dur;
  Ev.emit Ev.Debug "batch"
    [
      ("size", J.Int (List.length reqs));
      ("compiles", Int (Hashtbl.length fresh));
    ]
    ~timing:[ ("duration_s", J.Float batch_dur) ];
  responses

let handle_request (t : t) (rq : P.request) : P.response =
  match handle_batch t [ rq ] with [ r ] -> r | _ -> assert false

(* ------------------------------------------------------------- control *)

let ping_json (t : t) : J.t =
  J.Assoc
    [
      ("ok", J.Bool true);
      ("version", J.String Version.banner);
      ("protocol", J.Int P.protocol_version);
      ("cache_schema", J.Int Cache.schema_version);
      ("jobs", J.Int t.jobs);
    ]

(* The wire ledger: one row per counter field of {"op":"stats"} and
   {"op":"metrics"} (both formats) — its wire name, its Prometheus
   series, and the service counters whose sum it reports.  Every row is
   a deterministic function of the request stream; wall-clock data
   (uptime, the latency histograms) is added only by the metrics
   encoders, under their "timing" member.  The unit ledger's asks, hits
   and recomputes are the per-unit cache counters: a unit is asked once
   and either hits, coalesces or misses (DESIGN §17). *)
type field = { wire : string; series : string; sum : string list }

let request_fields =
  [
    { wire = "requests"; series = "fgv_requests_total";
      sum = [ "service.requests" ] };
    { wire = "batches"; series = "fgv_batches_total";
      sum = [ "service.batches" ] };
    { wire = "hits"; series = "fgv_cache_hits_total";
      sum = [ "service.requests.hit" ] };
    { wire = "coalesced"; series = "fgv_cache_coalesced_total";
      sum = [ "service.requests.coalesced" ] };
    { wire = "misses"; series = "fgv_cache_misses_total";
      sum = [ "service.requests.miss" ] };
    { wire = "errors"; series = "fgv_errors_total";
      sum = [ "service.errors" ] };
  ]

let evictions =
  { wire = "evictions"; series = "fgv_cache_evictions_total";
    sum = [ "service.cache.evictions" ] }

let unit_fields =
  [
    { wire = "queries_asked"; series = "fgv_incremental_queries_total";
      sum =
        [ "service.cache.hits"; "service.cache.coalesced";
          "service.cache.misses" ] };
    { wire = "memo_hits"; series = "fgv_incremental_memo_hits_total";
      sum = [ "service.cache.hits" ] };
    { wire = "invalidated"; series = "fgv_incremental_invalidated_total";
      sum = [ "service.incremental.invalidated" ] };
    { wire = "recomputed"; series = "fgv_incremental_recomputed_total";
      sum = [ "service.cache.misses" ] };
  ]

let value (t : t) (f : field) =
  List.fold_left (fun n c -> n + count t c) 0 f.sum

(* A wire field's value, by its name in the stats line. *)
let stat (t : t) wire =
  value t
    (List.find
       (fun f -> f.wire = wire)
       (request_fields @ (evictions :: unit_fields)))

let ints (t : t) fields = List.map (fun f -> (f.wire, J.Int (value t f))) fields

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let hit_rate (t : t) = ratio (stat t "hits") (stat t "requests")

(* Unit-level reuse: how many per-kernel asks the artifact cache
   answered.  The bench incremental lane's reuse-rate figure. *)
let reuse_rate (t : t) = ratio (stat t "memo_hits") (stat t "queries_asked")

let incremental_json (t : t) : J.t =
  J.Assoc (ints t unit_fields @ [ ("reuse_rate", J.Float (reuse_rate t)) ])

let stats_json (t : t) : J.t =
  J.Assoc
    ((("ok", J.Bool true) :: ints t request_fields)
    @ [
        ("entries", J.Int (Cache.length t.cache));
        ("capacity", J.Int (Cache.capacity t.cache));
      ]
    @ ints t [ evictions ]
    @ [ ("incremental", incremental_json t) ])

(* {"op":"metrics"}: the same ledger plus the latency histograms and
   uptime — everything wall-derived under "timing", so the non-timing
   projection is byte-identical at any --jobs (DESIGN §16). *)
let metrics_json (t : t) : J.t =
  J.Assoc
    [
      ("ok", J.Bool true);
      ("schema", J.Int Version.metrics_schema);
      ("counters", J.Assoc (ints t request_fields));
      ( "cache",
        J.Assoc
          ([
             ("entries", J.Int (Cache.length t.cache));
             ("capacity", J.Int (Cache.capacity t.cache));
           ]
          @ ints t [ evictions ]
          @ [ ("hit_rate", J.Float (hit_rate t)) ]) );
      ("incremental", incremental_json t);
      ( "timing",
        J.Assoc
          [
            ("uptime_s", J.Float (Unix.gettimeofday () -. t.started));
            ( "histograms",
              J.Assoc
                [
                  ("request", H.to_json t.h_request);
                  ("batch", H.to_json t.h_batch);
                ] );
          ] );
    ]

(* Prometheus-style text exposition of the same ledger.  Histograms
   use the standard cumulative _bucket{le=...} encoding; there is no
   _sum series because histograms deliberately keep no float sum (see
   Histogram). *)
let metrics_text (t : t) : string =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let scalar name kind v = line "# TYPE %s %s" name kind; line "%s %s" name v in
  let counters fields =
    List.iter
      (fun f -> scalar f.series "counter" (string_of_int (value t f)))
      fields
  in
  let gauge name v = scalar name "gauge" v in
  let prom_float v =
    match J.float_repr v with "1e999" -> "+Inf" | "-1e999" -> "-Inf" | s -> s
  in
  let histogram name h =
    line "# TYPE %s histogram" name;
    let cum = ref 0 in
    List.iter
      (fun (_, hi, c) ->
        cum := !cum + c;
        if hi <> infinity then
          line "%s_bucket{le=\"%s\"} %d" name (prom_float hi) !cum)
      (H.buckets h);
    line "%s_bucket{le=\"+Inf\"} %d" name (H.count h);
    line "%s_count %d" name (H.count h)
  in
  counters request_fields;
  gauge "fgv_cache_entries" (string_of_int (Cache.length t.cache));
  gauge "fgv_cache_capacity" (string_of_int (Cache.capacity t.cache));
  counters [ evictions ];
  gauge "fgv_cache_hit_rate" (prom_float (hit_rate t));
  counters unit_fields;
  gauge "fgv_incremental_reuse_rate" (prom_float (reuse_rate t));
  gauge "fgv_uptime_seconds"
    (prom_float (Unix.gettimeofday () -. t.started));
  histogram "fgv_request_duration_seconds" t.h_request;
  histogram "fgv_batch_duration_seconds" t.h_batch;
  Buffer.contents buf

let metrics_reply (t : t) (fmt : P.metrics_format) : J.t =
  match fmt with
  | P.Mjson -> metrics_json t
  | P.Mtext ->
    J.Assoc
      [
        ("ok", J.Bool true);
        ("schema", J.Int Version.metrics_schema);
        ("format", J.String "text");
        ("body", J.String (metrics_text t));
      ]

(* What the serve loop does once a reply is sent. *)
type step = Continue | Quit

(* One wire line in, its reply appended to [buf] without the newline:
   a compile reply by {!Protocol.write_response}, a control reply
   encoded from its document. *)
let handle_line (t : t) (buf : Buffer.t) (text : string) : step =
  match P.decode_line text with
  | P.Malformed e ->
    P.write_response buf (P.Failed { id = ""; error = e });
    Continue
  | P.Single rq ->
    P.write_response buf (handle_request t rq);
    Continue
  | P.Batch rqs ->
    P.write_batch buf (handle_batch t rqs);
    Continue
  | P.Control c ->
    Ev.emit Ev.Debug "control" [ ("op", J.String (P.control_name c)) ];
    J.to_buffer ~minify:true buf
      (match c with
      | P.Cping -> ping_json t
      | P.Cstats -> stats_json t
      | P.Cmetrics fmt -> metrics_reply t fmt
      | P.Cshutdown -> J.Assoc [ ("ok", J.Bool true) ]);
    if c = P.Cshutdown then Quit else Continue

(* ----------------------------------------------------------- transports *)

(* [String.trim line = ""], without the copy. *)
let blank line =
  String.for_all
    (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
    line

let serve_channel (t : t) (ic : in_channel) (oc : out_channel) :
    [ `Eof | `Shutdown ] =
  (* Each reply is written into [buf] and sent from it, so its bytes
     are copied once, into the channel.  [Buffer.reset] then gives back
     any storage a reply grew past the initial 64 KiB, so the buffer
     never keeps the largest reply sent. *)
  let buf = Buffer.create 65536 in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when blank line -> loop ()
    | line -> (
      let step = handle_line t buf line in
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf;
      Buffer.reset buf;
      flush oc;
      match step with Continue -> loop () | Quit -> `Shutdown)
  in
  loop ()

(* Unix-domain socket transport: connections are accepted and served one
   at a time (the parallelism budget lives inside a batch, not across
   clients), the cache persists across connections, and {"op":
   "shutdown"} from any client stops the accept loop. *)
let serve_socket (t : t) (path : string) : unit =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let outcome =
          (* A client hanging up mid-reply is its problem, not ours. *)
          try serve_channel t ic oc with Sys_error _ -> `Eof
        in
        (try close_out_noerr oc with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match outcome with `Shutdown -> () | `Eof -> accept_loop ()
      in
      accept_loop ())
