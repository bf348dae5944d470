(* Tests for the compile service (lib/service, DESIGN §15):

   - the content-addressed cache: identical requests hit and the reply
     is byte-identical to the cold one; whitespace/comment-only source
     edits canonicalize to the same key; any flag that steers
     compilation changes the key ([heap] only when [emit_c] does);
   - LRU eviction at the --cache-max cap, with the eviction counter;
   - the determinism contract: a batch's response stream is
     byte-identical at --jobs 1 and --jobs 4;
   - the wire protocol: line classification, whole-batch rejection of a
     malformed element, control ops, and error responses. *)

module J = Fgv_support.Json
module S = Fgv_service.Service
module C = Fgv_service.Cache
module P = Fgv_service.Protocol
module Ev = Fgv_support.Eventlog

let rq ?(id = "") ?(pipeline = "sv+v") ?(no_restrict = false)
    ?(emit_c = false) ?(heap = P.default_heap) source =
  {
    P.rq_id = id;
    rq_source = source;
    rq_pipeline = pipeline;
    rq_no_restrict = no_restrict;
    rq_emit_c = emit_c;
    rq_heap = heap;
  }

let src =
  "kernel k(float* restrict a, float* restrict b, int n) { for (int i = 0; \
   i < n; i = i + 1) { a[i] = b[i] + 1.0; } }"

(* Same token stream as [src]: comments, whitespace, and a numerically
   identical float literal spelling. *)
let src_reformatted =
  "kernel k(float* restrict a, float* restrict b, int n) {\n\
  \  // reformatted\n\
  \  for (int i = 0; i < n; i = i + 1) { /* body */ a[i]   = b[i] + 1.00; }\n\
   }"

let src_other i =
  Printf.sprintf
    "kernel k%d(float* restrict a, float* restrict b, int n) { for (int i \
     = 0; i < n; i = i + 1) { a[i] = b[i] * %d.0; } }"
    i i

let line r = P.response_line r

(* A wire line's reply as the serve loop sends it, without the newline;
   "quit:" marks the reply after which the service stops. *)
let reply svc text =
  let buf = Buffer.create 1024 in
  match S.handle_line svc buf text with
  | S.Continue -> Buffer.contents buf
  | S.Quit -> "quit:" ^ Buffer.contents buf

let reply_json svc text =
  match J.of_string (reply svc text) with
  | Ok j -> j
  | Error e -> Alcotest.failf "reply to %s is not JSON: %s" text e

(* The cache key of a one-kernel request. *)
let key (r : P.request) =
  match Fgv_frontend.Parser.parse_program r.P.rq_source with
  | [ (_, slice) ] -> C.unit_key r slice
  | _ -> Alcotest.fail "expected one kernel"

let test_hit_byte_identical () =
  let svc = S.create ~jobs:1 () in
  let cold = S.handle_request svc (rq src) in
  let cached = S.handle_request svc (rq src) in
  Alcotest.(check string) "cached reply is byte-identical" (line cold)
    (line cached);
  Alcotest.(check int) "one hit" 1 (S.count svc "service.requests.hit");
  Alcotest.(check int) "one miss" 1 (S.count svc "service.requests.miss")

let test_canonicalization_hits () =
  let svc = S.create ~jobs:1 () in
  let a = S.handle_request svc (rq src) in
  let b = S.handle_request svc (rq src_reformatted) in
  Alcotest.(check string) "reformatted source is served from cache"
    (line a) (line b);
  Alcotest.(check int) "reformat was a hit" 1
    (S.count svc "service.requests.hit");
  Alcotest.(check string) "keys agree" (key (rq src))
    (key (rq src_reformatted))

let test_flags_change_key () =
  let base = key (rq src) in
  Alcotest.(check bool) "pipeline is in the key" false
    (base = key (rq ~pipeline:"o3" src));
  Alcotest.(check bool) "no_restrict is in the key" false
    (base = key (rq ~no_restrict:true src));
  Alcotest.(check bool) "emit_c is in the key" false
    (base = key (rq ~emit_c:true src));
  Alcotest.(check bool) "source is in the key" false
    (base = key (rq (src_other 1)));
  (* heap only steers the emitted C's memory image, so it participates
     exactly when emit_c does. *)
  Alcotest.(check string) "heap ignored without emit_c" base
    (key (rq ~heap:64 src));
  Alcotest.(check bool) "heap in the key with emit_c" false
    (key (rq ~emit_c:true ~heap:64 src)
    = key (rq ~emit_c:true ~heap:128 src));
  Alcotest.(check bool) "id is not in the key" true
    (base = key (rq ~id:"whatever" src))

(* Unit keys show in access records and are the [cache-schema] 2 key
   format, so their bytes must not move when the way they are built
   does.  Recorded for every paper kernel and a two-kernel unit of
   literal spellings, under every pipeline and four flag sets.  The tool
   version is part of every key: bumping it re-records this golden. *)
let test_unit_key_golden () =
  let literals =
    "kernel lits(float* a, int n) {\n\
    \  a[0] = 1.0 + 1.00 + 0.1 + 1e10 + 2.5E-3 + 7. + 3e+2;\n\
    \  a[1] = (float) (n % 4096 + 0);\n\
     }\n\
     kernel twin(float* a) { a[0] = 0.0 ; }\n"
  in
  let flags =
    [ (false, false, 1024); (true, false, 1024); (false, true, 1024);
      (true, true, 32) ]
  in
  let keys pipeline src =
    let units = Result.get_ok (Fgv_frontend.Compile.units src) in
    List.concat_map
      (fun (no_restrict, emit_c, heap) ->
        let r = rq ~pipeline ~no_restrict ~emit_c ~heap src in
        List.map (fun (_, slice) -> C.unit_key r slice) units)
      flags
  in
  let sources =
    List.map
      (fun k -> k.Fgv_bench.Workload.k_source)
      (Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
     @ Fgv_bench.Specfp.kernels)
    @ [ literals ]
  in
  let all =
    List.concat_map
      (fun src ->
        List.concat_map
          (fun p -> keys p src)
          ("none" :: Fgv_passes.Pipelines.names))
      sources
  in
  Alcotest.(check int) "keys" 4160 (List.length all);
  Alcotest.(check string) "digest of every key, one per line"
    "4e215f994043c8ce340722cc8c120183"
    (Digest.to_hex
       (Digest.string (String.concat "" (List.map (fun k -> k ^ "\n") all))));
  Alcotest.(check (list string)) "the literal unit under sv+v"
    [
      "97e5938a9674a56659cf9b6c2dc04b3e"; "342ef5b6dbbc86481003b43054292185";
      "35e17ea3933a8c8174c75566d4932185"; "5b59d1ce82d2f503470fe89606a50cc0";
      "ce38700c125dc142acf6408fef1e27e2"; "5d7ded2375c74ac6b3dd0fc5bdff7511";
      "0c82e3e6e67b675a269ed790067553bc"; "40e53cf07522fa4ac97ad153517caec7";
    ]
    (keys "sv+v" literals)

let test_eviction_lru () =
  let svc = S.create ~jobs:1 ~cache_max:2 () in
  ignore (S.handle_request svc (rq (src_other 1)));
  ignore (S.handle_request svc (rq (src_other 2)));
  (* Touch 1 so 2 is the least recently used... *)
  ignore (S.handle_request svc (rq (src_other 1)));
  (* ...and a third distinct kernel evicts it. *)
  ignore (S.handle_request svc (rq (src_other 3)));
  Alcotest.(check int) "capped at two entries" 2 (C.length svc.S.cache);
  Alcotest.(check int) "one eviction" 1 (S.count svc "service.cache.evictions");
  ignore (S.handle_request svc (rq (src_other 1)));
  Alcotest.(check int) "kernel 1 survived (LRU evicted kernel 2)" 2
    (S.count svc "service.requests.hit");
  ignore (S.handle_request svc (rq (src_other 2)));
  Alcotest.(check int) "kernel 2 was evicted, so it misses" 4
    (S.count svc "service.requests.miss")

let batch_lines svc reqs =
  List.map line (S.handle_batch svc reqs)

let test_jobs_determinism () =
  (* Mixed batch: distinct kernels, duplicates to coalesce, one failing
     request.  The response stream must not depend on the job count. *)
  let reqs =
    [
      rq ~id:"a" (src_other 1);
      rq ~id:"b" (src_other 2);
      rq ~id:"dup" (src_other 1);
      rq ~id:"bad" "kernel oops(";
      rq ~id:"c" ~pipeline:"combined" ~emit_c:true ~heap:32 (src_other 3);
      rq ~id:"d" (src_other 4);
    ]
  in
  let out1 = batch_lines (S.create ~jobs:1 ()) reqs in
  let out4 = batch_lines (S.create ~jobs:4 ()) reqs in
  Alcotest.(check (list string)) "responses byte-identical at jobs 1 vs 4"
    out1 out4

let test_batch_coalescing () =
  let svc = S.create ~jobs:2 () in
  let reqs =
    [ rq ~id:"x" (src_other 7); rq ~id:"y" (src_other 7);
      rq ~id:"z" (src_other 7) ]
  in
  (match S.handle_batch svc reqs with
  | [
   P.Compiled { artifact = a1; _ };
   P.Compiled { artifact = a2; _ };
   P.Compiled { artifact = a3; _ };
  ] ->
    Alcotest.(check string) "duplicates share the one compile"
      a1.P.ar_wire a2.P.ar_wire;
    Alcotest.(check string) "all three agree" a1.P.ar_wire a3.P.ar_wire
  | _ -> Alcotest.fail "expected three compiled responses");
  Alcotest.(check int) "one miss" 1 (S.count svc "service.requests.miss");
  Alcotest.(check int) "two coalesced, zero hits" 2
    (S.count svc "service.requests.coalesced");
  Alcotest.(check int) "zero hits within the batch" 0
    (S.count svc "service.requests.hit")

let test_protocol_lines () =
  let classify text =
    match P.decode_line text with
    | P.Single _ -> "single"
    | P.Batch rs -> Printf.sprintf "batch:%d" (List.length rs)
    | P.Control c -> "control:" ^ P.control_name c
    | P.Malformed _ -> "malformed"
  in
  Alcotest.(check string) "object with source" "single"
    (classify {|{"source":"kernel k(int n) { }"}|});
  Alcotest.(check string) "array of requests" "batch:2"
    (classify {|[{"source":"a"},{"source":"b"}]|});
  Alcotest.(check string) "ping" "control:ping" (classify {|{"op":"ping"}|});
  Alcotest.(check string) "stats" "control:stats"
    (classify {|{"op":"stats"}|});
  Alcotest.(check string) "metrics" "control:metrics"
    (classify {|{"op":"metrics"}|});
  Alcotest.(check string) "metrics with text format" "control:metrics"
    (classify {|{"op":"metrics","format":"text"}|});
  Alcotest.(check string) "unknown metrics format" "malformed"
    (classify {|{"op":"metrics","format":"xml"}|});
  Alcotest.(check string) "unknown op" "malformed"
    (classify {|{"op":"dance"}|});
  Alcotest.(check string) "missing source" "malformed" (classify {|{}|});
  Alcotest.(check string) "bad JSON" "malformed" (classify "{nope");
  Alcotest.(check string) "non-object element rejects the whole batch"
    "malformed"
    (classify {|[{"source":"a"},42]|});
  Alcotest.(check string) "empty batch" "malformed" (classify "[]")

(* The wire ledger of a cache_max:4 service after a mix that touches
   every field: a reformatted hit, an in-batch duplicate, a two-kernel
   unit and then the same unit with one kernel edited, a parse error, a
   lowering error, an emit_c request and four evictions.  Returns the
   stats line, the metrics JSON without its timing member, and the
   Prometheus text up to the uptime gauge. *)
let ledger_mix jobs =
  let svc = S.create ~jobs ~cache_max:4 () in
  let reply = reply svc in
  let send reqs =
    ignore
      (reply
         (J.to_string ~minify:true
            (match reqs with
            | [ r ] -> P.encode_request r
            | rs -> J.List (List.map P.encode_request rs))))
  in
  let unit2 c =
    src_other 5
    ^ Printf.sprintf
        "\nkernel w(float* restrict a, int n) { for (int i = 0; i < n; i = \
         i + 1) { a[i] = a[i] * %d.0; } }"
        c
  in
  send [ rq ~id:"k" src ];
  send [ rq ~id:"reformatted" src_reformatted ];
  send [ rq ~id:"a" (src_other 1); rq ~id:"dup" (src_other 1);
         rq ~id:"b" (src_other 2) ];
  send [ rq ~id:"unit" (unit2 6) ];
  send [ rq ~id:"edited" (unit2 7) ];
  send [ rq ~id:"parse" "kernel oops(" ];
  send [ rq ~id:"lower" "kernel lerr(float* a) { a[0] = zz; }" ];
  send [ rq ~id:"c" ~pipeline:"o3" ~emit_c:true ~heap:32 (src_other 3) ];
  send [ rq ~id:"again" src ];
  let stats = reply {|{"op":"stats"}|} in
  let metrics =
    match J.of_string (reply {|{"op":"metrics"}|}) with
    | Ok (J.Assoc fields) ->
      J.to_string ~minify:true (J.Assoc (List.remove_assoc "timing" fields))
    | _ -> "metrics is not an object"
  in
  let prometheus =
    match
      J.of_string (reply {|{"op":"metrics","format":"text"}|})
      |> Result.to_option
      |> Fun.flip Option.bind (J.string_member "body")
    with
    | None -> "text metrics has no body"
    | Some body ->
      let cut = "# TYPE fgv_uptime" in
      let rec find i =
        if i + String.length cut > String.length body then String.length body
        else if String.sub body i (String.length cut) = cut then i
        else find (i + 1)
      in
      String.sub body 0 (find 0)
  in
  (stats, metrics, prometheus)

let ledger_stats_golden =
  {|{"ok":true,"requests":11,"batches":9,"hits":1,"coalesced":1,"misses":9,"errors":2,"entries":4,"capacity":4,"evictions":4,"incremental":{"queries_asked":12,"memo_hits":2,"invalidated":1,"recomputed":9,"reuse_rate":0.16666666666666666}}|}

let ledger_metrics_golden =
  {|{"ok":true,"schema":1,"counters":{"requests":11,"batches":9,"hits":1,"coalesced":1,"misses":9,"errors":2},"cache":{"entries":4,"capacity":4,"evictions":4,"hit_rate":0.090909090909090912},"incremental":{"queries_asked":12,"memo_hits":2,"invalidated":1,"recomputed":9,"reuse_rate":0.16666666666666666}}|}

let ledger_prometheus_golden =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       [
         "# TYPE fgv_requests_total counter";
         "fgv_requests_total 11";
         "# TYPE fgv_batches_total counter";
         "fgv_batches_total 9";
         "# TYPE fgv_cache_hits_total counter";
         "fgv_cache_hits_total 1";
         "# TYPE fgv_cache_coalesced_total counter";
         "fgv_cache_coalesced_total 1";
         "# TYPE fgv_cache_misses_total counter";
         "fgv_cache_misses_total 9";
         "# TYPE fgv_errors_total counter";
         "fgv_errors_total 2";
         "# TYPE fgv_cache_entries gauge";
         "fgv_cache_entries 4";
         "# TYPE fgv_cache_capacity gauge";
         "fgv_cache_capacity 4";
         "# TYPE fgv_cache_evictions_total counter";
         "fgv_cache_evictions_total 4";
         "# TYPE fgv_cache_hit_rate gauge";
         "fgv_cache_hit_rate 0.090909090909090912";
         "# TYPE fgv_incremental_queries_total counter";
         "fgv_incremental_queries_total 12";
         "# TYPE fgv_incremental_memo_hits_total counter";
         "fgv_incremental_memo_hits_total 2";
         "# TYPE fgv_incremental_invalidated_total counter";
         "fgv_incremental_invalidated_total 1";
         "# TYPE fgv_incremental_recomputed_total counter";
         "fgv_incremental_recomputed_total 9";
         "# TYPE fgv_incremental_reuse_rate gauge";
         "fgv_incremental_reuse_rate 0.16666666666666666";
       ])

let test_handle_line_ops () =
  let svc = S.create ~jobs:1 () in
  let reply = reply svc in
  let parse s = Result.get_ok (J.of_string s) in
  let ping = parse (reply {|{"op":"ping"}|}) in
  Alcotest.(check (option int)) "ping reports the protocol version"
    (Some P.protocol_version)
    (J.int_member "protocol" ping);
  Alcotest.(check (option int)) "ping reports the cache schema"
    (Some C.schema_version)
    (J.int_member "cache_schema" ping);
  ignore (reply (P.encode_request (rq src) |> J.to_string ~minify:true));
  ignore (reply (P.encode_request (rq src) |> J.to_string ~minify:true));
  let stats = parse (reply {|{"op":"stats"}|}) in
  Alcotest.(check (option int)) "stats counts requests" (Some 2)
    (J.int_member "requests" stats);
  Alcotest.(check (option int)) "stats counts hits" (Some 1)
    (J.int_member "hits" stats);
  Alcotest.(check (option int)) "stats reports cache capacity" (Some 128)
    (J.int_member "capacity" stats);
  let metrics = parse (reply {|{"op":"metrics"}|}) in
  let counters = Option.get (J.member "counters" metrics) in
  Alcotest.(check (option int)) "metrics agrees with stats on requests"
    (J.int_member "requests" stats)
    (J.int_member "requests" counters);
  let cache = Option.get (J.member "cache" metrics) in
  Alcotest.(check (option int)) "metrics reports cache entries" (Some 1)
    (J.int_member "entries" cache);
  (match J.member "hit_rate" cache with
  | Some (J.Float r) ->
    Alcotest.(check (float 1e-9)) "hit rate is hits/requests" 0.5 r
  | _ -> Alcotest.fail "metrics cache has no hit_rate");
  let request_hist =
    Option.get (J.member "timing" metrics)
    |> J.member "histograms" |> Option.get
    |> J.member "request" |> Option.get
  in
  Alcotest.(check (option int)) "request histogram saw both requests"
    (Some 2)
    (J.int_member "count" request_hist);
  let text = parse (reply {|{"op":"metrics","format":"text"}|}) in
  (match J.string_member "body" text with
  | Some body ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "text exposition carries the request histogram"
      true
      (contains body "fgv_request_duration_seconds_count 2")
  | None -> Alcotest.fail "text metrics has no body");
  let err = parse (reply "{nope") in
  Alcotest.(check (option bool)) "malformed line answers ok:false"
    (Some false) (J.bool_member "ok" err);
  Alcotest.(check string) "shutdown quits" "quit:{\"ok\":true}"
    (reply {|{"op":"shutdown"}|});
  (* The whole wire ledger, byte for byte, at both job counts.  The
     goldens were recorded before the service kept its counts in an Obs
     context of its own; no wire field or value may drift. *)
  List.iter
    (fun jobs ->
      let stats, metrics, prometheus = ledger_mix jobs in
      Alcotest.(check string) "stats line golden" ledger_stats_golden stats;
      Alcotest.(check string) "untimed metrics golden" ledger_metrics_golden
        metrics;
      Alcotest.(check string) "Prometheus counters golden"
        ledger_prometheus_golden prometheus)
    [ 1; 2 ]

let test_failures_not_cached () =
  let svc = S.create ~jobs:1 () in
  (match S.handle_request svc (rq "kernel oops(") with
  | P.Failed _ -> ()
  | P.Compiled _ | P.Compiled_many _ -> Alcotest.fail "expected a parse failure");
  (match S.handle_request svc (rq "kernel oops(") with
  | P.Failed _ -> ()
  | P.Compiled _ | P.Compiled_many _ -> Alcotest.fail "expected a parse failure");
  Alcotest.(check int) "failures never hit" 0
    (S.count svc "service.requests.hit");
  Alcotest.(check int) "failures are recompiled" 2
    (S.count svc "service.requests.miss");
  Alcotest.(check int) "failures are not stored" 0 (C.length svc.S.cache);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match S.handle_request svc (rq ~pipeline:"warp-speed" src) with
  | P.Failed { error; _ } ->
    Alcotest.(check bool) "unknown pipeline names the registry" true
      (contains error "unknown pipeline")
  | P.Compiled _ | P.Compiled_many _ ->
    Alcotest.fail "expected an unknown-pipeline failure"

(* A numeric literal the lexer cannot represent is a lex error, not an
   escaped exception: the request answers ok:false and the service still
   answers the next line. *)
let test_unrepresentable_literal () =
  let svc = S.create ~jobs:1 () in
  let reply = reply_json svc in
  List.iter
    (fun literal ->
      let source = Printf.sprintf "kernel k(float* a) { a[0] = %s; }" literal in
      let r = reply (J.to_string ~minify:true (P.encode_request (rq source))) in
      Alcotest.(check (option bool)) (literal ^ " answers ok:false") (Some false)
        (J.bool_member "ok" r);
      let error = Option.value ~default:"" (J.string_member "error" r) in
      Alcotest.(check bool)
        (literal ^ " is a lex error: " ^ error)
        true
        (String.starts_with ~prefix:"lex error: " error);
      Alcotest.(check (option int)) "the next line is still answered"
        (Some P.protocol_version)
        (J.int_member "protocol" (reply {|{"op":"ping"}|})))
    [ "99999999999999999999999"; "1e" ]

(* A source that does not parse answers with the frontend's own error,
   at classification: the second kernel's parse error is the same one
   that kernel gets alone.  The request asks no unit and runs no
   compile; it is an error and a request-level miss, and its access
   record has an empty key. *)
let test_parse_error_at_classification () =
  let bad = "kernel b(float* y) { y[0] = ; }" in
  let both = "kernel a(float* x) { x[0] = 1.0; } " ^ bad in
  let error_of = function
    | P.Failed { error; _ } -> error
    | P.Compiled _ | P.Compiled_many _ -> Alcotest.fail "expected a failure"
  in
  let path = Filename.temp_file "fgv-service" ".jsonl" in
  Ev.open_log ~path ~level:Ev.Info;
  let svc = S.create ~jobs:1 () in
  let alone = error_of (S.handle_request svc (rq ~pipeline:"o3" bad)) in
  let together = error_of (S.handle_request svc (rq ~pipeline:"o3" both)) in
  Ev.close ();
  let access =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match J.of_string l with
           | Ok j when J.string_member "event" j = Some "access" -> Some j
           | _ -> None)
  in
  Sys.remove path;
  Alcotest.(check string) "kernel b alone"
    "parse error: expected expression, got ';'" alone;
  Alcotest.(check string) "kernel b after kernel a" alone together;
  Alcotest.(check int) "two errors" 2 (S.count svc "service.errors");
  Alcotest.(check int) "two misses" 2 (S.count svc "service.requests.miss");
  Alcotest.(check int) "hits + coalesced + misses = requests"
    (S.count svc "service.requests")
    (S.count svc "service.requests.hit"
     + S.count svc "service.requests.coalesced"
     + S.count svc "service.requests.miss");
  Alcotest.(check int) "no unit asked" 0 (S.stat svc "queries_asked");
  Alcotest.(check int) "no compile" 0 (S.count svc "service.compiles");
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "outcome" (Some "miss")
        (J.string_member "outcome" j);
      Alcotest.(check (option string)) "key" (Some "")
        (J.string_member "key" j))
    access;
  Alcotest.(check int) "two access records" 2 (List.length access)

(* A request that names an unknown pipeline answers at classification,
   as a parse error does: it asks no unit and runs no compile, counts as
   an error and a request-level miss, and leaves the kernel's last
   compiled key alone, so compiling the kernel again under its real
   pipeline is no edit. *)
let test_unknown_pipeline_at_classification () =
  let svc = S.create ~jobs:1 ~cache_max:1 () in
  let stats () = reply_json svc {|{"op":"stats"}|} in
  let unit_field name =
    J.int_member name (Option.get (J.member "incremental" (stats ())))
  in
  let k =
    "kernel k(float* a, int n) { for (int i = 0; i < n; i = i + 1) { a[i] \
     = a[i] + 1.0; } }"
  in
  ignore (S.handle_request svc (rq ~pipeline:"o3" k));
  (match S.handle_request svc (rq ~pipeline:"o3x" k) with
  | P.Failed { error; _ } ->
    Alcotest.(check string) "the registry's error text"
      (Printf.sprintf "unknown pipeline o3x (one of: %s)"
         (String.concat ", " ("none" :: Fgv_passes.Pipelines.names)))
      error
  | P.Compiled _ | P.Compiled_many _ ->
    Alcotest.fail "expected an unknown-pipeline failure");
  Alcotest.(check (option int)) "one error" (Some 1)
    (J.int_member "errors" (stats ()));
  Alcotest.(check (option int)) "two request-level misses" (Some 2)
    (J.int_member "misses" (stats ()));
  Alcotest.(check (option int)) "one unit asked" (Some 1)
    (unit_field "queries_asked");
  Alcotest.(check (option int)) "one recompute" (Some 1)
    (unit_field "recomputed");
  Alcotest.(check (option int)) "no edit" (Some 0) (unit_field "invalidated");
  Alcotest.(check int) "one compile" 1 (S.count svc "service.compiles");
  (* evict k, then ask for it under o3 again: the same content *)
  ignore (S.handle_request svc (rq ~pipeline:"o3" (src_other 1)));
  ignore (S.handle_request svc (rq ~pipeline:"o3" k));
  Alcotest.(check (option int)) "k compiled again is no edit" (Some 0)
    (unit_field "invalidated");
  Alcotest.(check (option int)) "three recomputes" (Some 3)
    (unit_field "recomputed")

(* ------------------------------------------------ the reply writer *)

module R = Harness.Reply_reference

(* A reference response in wire form: each artifact through the
   service's encoder. *)
let to_wire (r : R.response) : P.response =
  let artifact (a : R.artifact) =
    P.encode_artifact ~func:a.R.ar_func ~ir:a.R.ar_ir ~remarks:a.R.ar_remarks
      ~c:a.R.ar_c ~counters:a.R.ar_counters
  in
  match r with
  | R.Compiled { id; artifact = a } -> P.Compiled { id; artifact = artifact a }
  | R.Compiled_many { id; artifacts } ->
    P.Compiled_many { id; artifacts = List.map artifact artifacts }
  | R.Failed { id; error } -> P.Failed { id; error }

let gen_bytes = Harness.gen_bytes

(* Remarks may be any JSON documents: the encoder writes them as the
   emitter does. *)
let gen_artifact =
  QCheck2.Gen.(
    let* func = gen_bytes in
    let* ir = gen_bytes in
    let* remarks = list_size (int_range 0 3) Harness.gen_json in
    let* c = opt gen_bytes in
    let* counters =
      list_size (int_range 0 4)
        (pair gen_bytes (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]))
    in
    pure
      {
        R.ar_func = func;
        ar_ir = ir;
        ar_remarks = remarks;
        ar_c = c;
        ar_counters = counters;
      })

let gen_response =
  QCheck2.Gen.(
    let* id = oneof [ pure ""; gen_bytes ] in
    oneof
      [
        map (fun error -> R.Failed { id; error }) gen_bytes;
        map (fun a -> R.Compiled { id; artifact = a }) gen_artifact;
        map
          (fun artifacts -> R.Compiled_many { id; artifacts })
          (list_size (int_range 1 4) gen_artifact);
      ])

(* The writer gives the reference encoder's bytes for every response and
   batch, and each artifact counts its remarks and counters. *)
let prop_reply_writer_reference =
  QCheck2.Test.make ~name:"reply writer equals the reference encoder"
    ~count:1000
    ~print:(fun rs -> String.escaped (R.batch_line rs))
    QCheck2.Gen.(list_size (int_range 0 4) gen_response)
    (fun rs ->
      let wire = List.map to_wire rs in
      let batch = Buffer.create 256 in
      P.write_batch batch wire;
      let counted (a : R.artifact) (w : P.artifact) =
        w.P.ar_func = a.R.ar_func
        && w.P.ar_remark_count = List.length a.R.ar_remarks
        && w.P.ar_counter_count = List.length a.R.ar_counters
      in
      List.for_all2
        (fun r w ->
          P.response_line w = R.response_line r
          &&
          match (r, w) with
          | R.Compiled { artifact = a; _ }, P.Compiled { artifact = w; _ } ->
            counted a w
          | R.Compiled_many { artifacts = a; _ },
            P.Compiled_many { artifacts = w; _ } ->
            List.for_all2 counted a w
          | _ -> true)
        rs wire
      && Buffer.contents batch = R.batch_line rs)

(* Every reply shape through the service: a hit on a warmed service is
   byte for byte the reply a service that keeps one artifact compiles
   fresh.  The shapes: ids over all 256 byte values, with and without C,
   with no remarks (pipeline none) and with some, units of two to four
   kernels, lex, parse, lowering and pipeline errors, and a batch. *)
let test_hit_equals_fresh_reply () =
  let every_byte = String.init 256 Char.chr in
  let unit ks = String.concat "\n" (List.map src_other ks) in
  let request r = J.to_string ~minify:true (P.encode_request r) in
  let lines =
    [
      request (rq ~id:every_byte src);
      request (rq ~id:"c" ~emit_c:true ~heap:32 (src_other 1));
      request (rq ~id:"none" ~pipeline:"none" (src_other 2));
      request (rq ~pipeline:"o3" ~no_restrict:true (src_other 3));
      request (rq ~id:"two" (unit [ 11; 12 ]));
      request
        (rq ~id:"three" ~pipeline:"combined" ~emit_c:true
           (unit [ 13; 14; 15 ]));
      request (rq ~id:"four" ~pipeline:"none" (unit [ 16; 17; 18; 19 ]));
      request (rq ~id:"lex" "kernel k(float* a) { a[0] = $; }");
      request (rq ~id:"parse" "kernel oops(");
      request (rq ~id:"lower" "kernel lerr(float* a) { a[0] = zz; }");
      request (rq ~id:"pipe" ~pipeline:"warp" src);
      J.to_string ~minify:true
        (J.List
           (List.map P.encode_request
              [
                rq ~id:("b" ^ every_byte) (src_other 4);
                rq ~id:"dup" (src_other 4);
                rq ~id:"bad" "kernel oops(";
                rq ~id:"u" ~emit_c:true (unit [ 5; 6 ]);
              ]));
    ]
  in
  let warm = S.create ~jobs:1 () in
  List.iter (fun l -> ignore (reply warm l)) lines;
  let misses = S.count warm "service.cache.misses" in
  let fresh = S.create ~jobs:1 ~cache_max:1 () in
  List.iter
    (fun l ->
      let want = reply fresh l in
      Alcotest.(check string) l want (reply warm l))
    lines;
  Alcotest.(check int) "the warmed service recompiled only the lowering error"
    (misses + 1) (S.count warm "service.cache.misses");
  Alcotest.(check int) "the warmed service hit every other unit" 17
    (S.count warm "service.cache.hits");
  Alcotest.(check int) "the one-artifact service never hit" 0
    (S.count fresh "service.cache.hits")

let suite =
  [
    Alcotest.test_case "hit is byte-identical" `Quick
      test_hit_byte_identical;
    Alcotest.test_case "canonicalization" `Quick test_canonicalization_hits;
    Alcotest.test_case "flags change the key" `Quick test_flags_change_key;
    Alcotest.test_case "unit key golden" `Quick test_unit_key_golden;
    Alcotest.test_case "LRU eviction at cache-max" `Quick test_eviction_lru;
    Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
    Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
    Alcotest.test_case "protocol classification" `Quick test_protocol_lines;
    Alcotest.test_case "control ops" `Quick test_handle_line_ops;
    Alcotest.test_case "failures are not cached" `Quick
      test_failures_not_cached;
    Alcotest.test_case "unrepresentable literal is a lex error" `Quick
      test_unrepresentable_literal;
    Alcotest.test_case "parse errors answer at classification" `Quick
      test_parse_error_at_classification;
    Alcotest.test_case "unknown pipelines answer at classification" `Quick
      test_unknown_pipeline_at_classification;
    QCheck_alcotest.to_alcotest prop_reply_writer_reference;
    Alcotest.test_case "a hit equals a fresh reply in every shape" `Quick
      test_hit_equals_fresh_reply;
  ]
