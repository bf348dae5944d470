(* fgvc — the mini-C kernel compiler driver.

   Compiles a kernel to predicated SSA, optionally applies one of the
   standard pipelines, and can print the PSSA, print the lowered CFG, or
   interpret the result with the cost model.

     fgvc kernel.c -p sv+v --dump-ir --run -a 0,64,16 --heap 256

   Observability (see DESIGN.md §11):

     fgvc kernel.c -p sv+v --trace trace.json   # Chrome/Perfetto spans
     fgvc kernel.c -p sv+v --remarks            # human-readable remarks
     fgvc kernel.c -p sv+v --remarks=json       # one JSON object per line
     fgvc kernel.c -p sv+v --dump-ir=DIR        # per-pass IR snapshots+diffs

   With [--fuzz N] no input file is needed: the driver runs a
   differential-fuzzing campaign (lib/fuzz) of N generated programs
   through the selected pipeline (default: all of them), writes a
   machine-readable failure report with a shrunk reproducer on mismatch,
   and exits 4.

     fgvc --fuzz 500 --seed 42
     fgvc --fuzz 200 --pipeline sv+v --fuzz-report report.json

   [--jobs N] fans the campaign's seeds out over N worker domains
   (default: POOL_JOBS or the machine's core count).  The failure
   report, the telemetry counters, and the remark stream are
   byte-identical at any job count: the lowest failing seed wins,
   exactly as in a sequential scan.

   With [--serve] the driver becomes a batch compile service speaking
   newline-delimited JSON (lib/service, DESIGN.md §15): requests in,
   artifacts out, repeats answered from a content-addressed cache.

     fgvc --serve --jobs 4 < requests.jsonl
     fgvc --serve --socket /tmp/fgvc.sock --cache-max 256
*)

open Cmdliner
open Fgv_pssa
module P = Fgv_passes
module F = Fgv_fuzz
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Ev = Fgv_support.Eventlog
module N = Fgv_backend.Native
module Udiff = Fgv_support.Udiff

(* Schema versions of every machine-readable output this tool family
   emits; printed by --version so consumers can pin against them. *)
let version_string = Fgv_support.Version.banner

(* The format was checked before any work ([setup_observability]). *)
let print_stats = function
  | None -> ()
  | Some "json" -> print_endline (Fgv_support.Json.to_string (Tm.snapshot ()))
  | Some _ -> print_string (Tm.report ())

(* ----------------------------------------------------- observability *)

(* Check the --remarks and --stats formats, then enable span/remark
   recording and the structured event log per the flags; returns a
   finalizer that writes the trace file, prints the remark stream, and
   closes the log.  Runs before any work, so a bad format exits 2 with
   nothing on stdout in every mode. *)
let setup_observability trace remarks stats log =
  let check flag = function
    | None | Some "text" | Some "json" -> ()
    | Some other ->
      Printf.eprintf "unknown --%s format %s (expected text or json)\n" flag
        other;
      exit 2
  in
  check "remarks" remarks;
  check "stats" stats;
  if trace <> None then Tr.set_spans true;
  if remarks <> None then Tr.set_remarks true;
  (match log with
  | None -> ()
  | Some spec -> (
    match Ev.parse_spec spec with
    | Ok (path, level) -> Ev.open_log ~path ~level
    | Error e ->
      Printf.eprintf "fgvc: bad --log argument %s: %s\n" spec e;
      exit 2));
  fun () ->
    (match remarks with
    | Some "json" -> print_string (Tr.remarks_jsonl ())
    | Some _ -> print_string (Tr.remarks_report ())
    | None -> ());
    (match trace with Some file -> Tr.write_chrome_trace file | None -> ());
    Ev.close ()

(* Per-pass IR snapshots: DIR/000-input.pssa, then NNN-<pass>.pssa and a
   unified NNN-<pass>.diff for every stage that changed the printed IR.
   DIR exists: the driver made it before compiling. *)
let snapshot_hook dir (f0 : Ir.func) : string -> Ir.func -> unit =
  let write name s =
    let oc = open_out (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  let prev = ref (Printer.to_string f0) in
  let prev_name = ref "000-input" in
  write "000-input.pssa" !prev;
  let n = ref 0 in
  fun name f ->
    incr n;
    let base = Printf.sprintf "%03d-%s" !n name in
    let cur = Printer.to_string f in
    write (base ^ ".pssa") cur;
    let d =
      Udiff.unified
        ~from_label:(!prev_name ^ ".pssa")
        ~to_label:(base ^ ".pssa") !prev cur
    in
    if d <> "" then write (base ^ ".diff") d;
    prev := cur;
    prev_name := base

(* ---------------------------------------------------------- fuzz mode *)

let run_fuzz n seed pipeline report_file stats jobs native finalize =
  let pipelines =
    match P.Pipelines.resolve pipeline with
    | Error m ->
      prerr_endline m;
      exit 2
    | Ok _ -> if pipeline = "none" then P.Pipelines.names else [ pipeline ]
  in
  let jobs =
    if jobs > 0 then jobs else Fgv_support.Pool.default_jobs ()
  in
  if native && not (N.available ()) then begin
    Printf.eprintf
      "fgvc: --fuzz-native needs a C compiler (install cc/gcc/clang or set \
       FGV_CC)\n";
    exit 2
  end;
  let outcome = F.Campaign.run ~native ~pipelines ~jobs ~n ~seed () in
  let report = F.Campaign.report_json outcome in
  let oc = open_out report_file in
  output_string oc (Fgv_support.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  (match outcome.F.Campaign.c_failure with
  | None ->
    Printf.printf
      "fuzz: %d programs x %d pipelines, %d oracle runs, %d native runs, 0 \
       mismatches (report: %s)\n"
      outcome.F.Campaign.c_programs (List.length pipelines)
      (Tm.get "fuzz.oracle_runs")
      (Tm.get "fuzz.native_runs")
      report_file
  | Some f ->
    let m = f.F.Campaign.f_mismatch in
    Printf.printf
      "fuzz: MISMATCH at program %d (seed %d): %s\n\
       shrunk to %d statements in %d steps:\n\n%s\n\n\
       report written to %s\n"
      f.F.Campaign.f_index f.F.Campaign.f_seed
      (F.Oracle.mismatch_to_string m)
      f.F.Campaign.f_shrunk_stmts f.F.Campaign.f_shrink_steps
      f.F.Campaign.f_shrunk report_file);
  finalize ();
  print_stats stats;
  if outcome.F.Campaign.c_failure <> None then 4 else 0

(* --------------------------------------------------- native execution *)

(* [--run-native]: compile the CFG program's checked-mode C with the
   system toolchain, run it, and ask the differential contract
   ({!Interp.runs_agree}, the fuzz oracle's check) whether it behaves
   like the CFG interpreter on the user's kernel.  On agreement after a
   normal finish, also compile the fast configuration and report
   measured ns/run.  A disagreement is a compiler bug and exits 5. *)
let run_native_differential (prog : Fgv_cfg.Cir.prog) ~(argv : Value.t list)
    ~fresh_mem =
  if not (N.available ()) then begin
    Printf.eprintf
      "fgvc: --run-native needs a C compiler (install cc/gcc/clang or set \
       FGV_CC)\n";
    exit 2
  end;
  let reference =
    Interp.classify (fun () ->
        Fgv_cfg.Cinterp.(observe (run prog ~args:argv ~mem:(fresh_mem ()))))
  in
  let native =
    match N.compile_checked prog ~mem:(fresh_mem ()) with
    | Error e ->
      Printf.eprintf "fgvc: native compile failed: %s\n" e;
      exit 5
    | Ok c ->
      let res = N.run_checked c ~args:argv in
      N.release c;
      (match res with
      | Error e ->
        Printf.eprintf "fgvc: native run failed: %s\n" e;
        exit 5
      | Ok run -> run)
  in
  (match Interp.runs_agree reference native with
  | None -> ()
  | Some detail ->
    Printf.printf "native differential: MISMATCH (%s)\n" detail;
    exit 5);
  match reference with
  | Interp.Finished obs -> (
    Printf.printf "native differential: OK (class %s, %d impure calls)\n"
      (Interp.class_name reference)
      (List.length obs.Interp.o_trace);
    match N.run_fast prog ~args:argv ~mem:(fresh_mem ()) with
    | Error e -> Printf.eprintf "fgvc: native timing failed: %s\n" e
    | Ok fr ->
      Printf.printf
        "native timing: %.1f ns/run (%d reps, compile %.2fs, checksum %h)\n"
        fr.N.nf_ns fr.N.nf_reps fr.N.nf_compile_s fr.N.nf_checksum)
  | _ ->
    Printf.printf "native differential: OK (class %s)\n"
      (Interp.class_name reference)

(* ------------------------------------------------------- service mode *)

let run_serve socket cache_max stats jobs finalize =
  let module S = Fgv_service.Service in
  let svc =
    S.create ?jobs:(if jobs = 0 then None else Some jobs) ~cache_max ()
  in
  (* No jobs field here: the serve-start record is part of the log's
     deterministic (non-timing) projection, which must not vary with
     --jobs (DESIGN §16). *)
  Ev.emit Ev.Info "serve-start"
    [
      ( "transport",
        Fgv_support.Json.String
          (match socket with Some _ -> "socket" | None -> "stdin") );
      ("cache_max", Int cache_max);
    ];
  (match socket with
  | Some path -> S.serve_socket svc path
  | None -> ignore (S.serve_channel svc stdin stdout));
  Fgv_support.Obs.merge svc.S.obs;
  finalize ();
  print_stats stats;
  0

(* ------------------------------------------------------- compile mode *)

let run_driver file fuzz seed fuzz_report fuzz_native pipeline dump_ir
    dump_cfg run args heap no_restrict emit_c run_native stats jobs trace
    remarks serve socket cache_max log =
  let finalize = setup_observability trace remarks stats log in
  if serve || socket <> None then
    run_serve socket cache_max stats jobs finalize
  else if fuzz > 0 then begin
    Ev.emit Ev.Info "fuzz-campaign"
      [
        ("n", Fgv_support.Json.Int fuzz);
        ("seed", Int seed);
        ("pipeline", String pipeline);
      ];
    run_fuzz fuzz seed pipeline fuzz_report stats jobs fuzz_native finalize
  end
  else begin
  let file =
    match file with
    | Some f -> f
    | None ->
      Printf.eprintf "fgvc: expected a kernel FILE (or --fuzz N)\n";
      exit 2
  in
  let usage_error flag m =
    Printf.eprintf "fgvc: %s: %s\n" flag m;
    exit 2
  in
  (* [-a] values in order: a value with a dot is a float, anything else
     must be an integer (an int or an address) *)
  let argv =
    if args = "" then []
    else
      List.map
        (fun s ->
          let s = String.trim s in
          match float_of_string_opt s, int_of_string_opt s with
          | Some x, _ when String.contains s '.' -> Value.VFloat x
          | _, Some n -> Value.VInt n
          | _ ->
            usage_error "-a"
              (Printf.sprintf "%S is not an integer or a float" s))
        (String.split_on_char ',' args)
  in
  if heap < 1 then
    usage_error "--heap" (Printf.sprintf "must be at least 1 cell, got %d" heap);
  Ev.emit Ev.Info "compile"
    [
      ("file", Fgv_support.Json.String file);
      ("pipeline", String pipeline);
      ("no_restrict", Bool no_restrict);
    ];
  let apply =
    match P.Pipelines.resolve pipeline with
    | Ok p -> p
    | Error m ->
      Printf.eprintf "%s\n" m;
      exit 2
  in
  (* the snapshot directory, made now: a path that cannot be one is the
     caller's error, not a pipeline crash *)
  (match dump_ir with
  | Some dir when dir <> "-" ->
    if not (Sys.file_exists dir) then (
      try Sys.mkdir dir 0o755 with Sys_error m -> usage_error "--dump-ir" m)
    else if not (Sys.is_directory dir) then
      usage_error "--dump-ir" (dir ^ ": not a directory")
  | _ -> ());
  let source =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (* --dump-ir=DIR snapshots start from the lowered function *)
  let optimize f =
    match dump_ir with
    | Some dir when dir <> "-" -> apply ~on_pass:(snapshot_hook dir f) f
    | _ -> apply f
  in
  let f =
    match
      Fgv_frontend.Compile.source ~restrict:(not no_restrict) optimize source
    with
    | Ok f -> f
    | Error ((Lex _ | Parse _ | Lower _) as e) ->
      Printf.eprintf "fgvc: %s: %s\n" file (Fgv_frontend.Compile.message e);
      exit 1
    | Error e ->
      Printf.eprintf "internal error: %s\n" (Fgv_frontend.Compile.message e);
      exit 3
  in
  if dump_ir = Some "-" then Printer.print f;
  let prog = lazy (Fgv_cfg.Lower.lower f) in
  if dump_cfg then print_string (Fgv_cfg.Cir.to_string (Lazy.force prog));
  let fresh_mem () = Fgv_service.Protocol.heap_image heap in
  (match emit_c with
  | None -> ()
  | Some out ->
    let text = Fgv_service.Protocol.checked_c ~heap (Lazy.force prog) in
    if out = "-" then print_string text
    else begin
      let oc = open_out out in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" out
    end);
  if run_native then run_native_differential (Lazy.force prog) ~argv ~fresh_mem;
  (* the run is classified by the differential contract; the cost line
     reads the finished run's counters *)
  let trapped =
    run
    &&
    let finished = ref None in
    match
      Interp.classify (fun () ->
          let out = Interp.run f ~args:argv ~mem:(fresh_mem ()) in
          finished := Some out;
          Interp.observe out)
    with
    | Interp.Finished _ ->
      let c = (Option.get !finished).Interp.counters in
      Printf.printf
        "cost=%.0f  ops=%d vops=%d loads=%d vloads=%d stores=%d vstores=%d \
         calls=%d iterations=%d\n"
        (Interp.cost c) c.Interp.scalar_ops c.Interp.vector_ops c.Interp.loads
        c.Interp.vector_loads c.Interp.stores c.Interp.vector_stores
        c.Interp.calls c.Interp.iterations;
      false
    | fault ->
      Printf.eprintf "fgvc: %s: %s\n" file (Interp.class_name fault);
      true
  in
  finalize ();
  print_stats stats;
  (* a trap is the kernel's or its -a/--heap inputs' fault, not the
     compiler's *)
  if trapped then 6 else 0
  end

let file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"mini-C kernel file (omit with --fuzz)")

let fuzz_opt =
  Arg.(value & opt int 0 & info [ "fuzz" ] ~docv:"N"
         ~doc:"differential-fuzz N generated programs instead of compiling a \
               file; exits 4 and writes a failure report on mismatch")

let seed_opt =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"base seed for --fuzz; program i uses seed SEED+i, and a \
               failure report's seed replays that one program")

let fuzz_report_opt =
  Arg.(value & opt string "fuzz-report.json" & info [ "fuzz-report" ]
         ~docv:"FILE" ~doc:"where --fuzz writes its machine-readable report")

let pipeline =
  Arg.(value & opt string "none" & info [ "p"; "pipeline" ] ~docv:"PIPE"
         ~doc:"optimization pipeline: none, o3-novec, o3, sv, sv+v, \
               sv+v-nopromo, rle, rle-static, dse, dse-static, distribute, \
               distribute-static, combined (with --fuzz, none = fuzz all)")

let dump_ir =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "dump-ir" ] ~docv:"DIR"
        ~doc:
          "print the final predicated SSA; with $(b,--dump-ir=DIR), instead \
           write per-pass IR snapshots into $(docv): 000-input.pssa, then \
           NNN-<pass>.pssa plus a unified NNN-<pass>.diff for every pass \
           that changed the IR")

let dump_cfg =
  Arg.(value & flag & info [ "dump-cfg" ] ~doc:"print the lowered CFG SSA")

let run_flag = Arg.(value & flag & info [ "run" ] ~doc:"interpret the kernel")

let args_opt =
  Arg.(value & opt string "" & info [ "a"; "args" ] ~docv:"ARGS"
         ~doc:"comma-separated arguments (ints are addresses/ints, values \
               with a dot are floats)")

let heap_opt =
  Arg.(
    value
    & opt int Fgv_service.Protocol.default_heap
    & info [ "heap" ] ~docv:"CELLS" ~doc:"heap size in cells")

let no_restrict =
  Arg.(value & flag & info [ "no-restrict" ] ~doc:"ignore restrict qualifiers")

let emit_c_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-c" ] ~docv:"FILE"
        ~doc:
          "lower the optimized kernel to checked-mode portable C (the \
           differential-testing configuration: tagged values, fuel, \
           memory/trace protocol) and write it to $(docv) ($(b,-) = stdout)")

let run_native_opt =
  Arg.(
    value & flag
    & info [ "run-native" ]
        ~doc:
          "compile the kernel natively with the system C toolchain and \
           cross-check class, final memory, and impure-call trace against \
           the CFG interpreter, then report measured ns/run from the fast \
           configuration; exits 5 on a differential mismatch")

let fuzz_native_opt =
  Arg.(
    value & flag
    & info [ "fuzz-native" ]
        ~doc:
          "with --fuzz: also run every generated program natively (checked \
           mode) as a fourth oracle; requires a C compiler")

let jobs_opt =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker domains for --fuzz and --serve (0 = auto: $(b,POOL_JOBS) \
           or the machine's core count); results are byte-identical at any \
           job count")

let stats_opt =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "print the telemetry counters and timers the compile recorded \
           (plans, checks, cut sizes, condition optimizations, pass work); \
           $(docv) is $(b,text) (default) or $(b,json)")

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "record hierarchical spans (pipelines, passes, plan inference, \
           cut, materialization) and write them to $(docv) as a Chrome \
           trace-event JSON, loadable in Perfetto or chrome://tracing")

let remarks_opt =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "remarks" ] ~docv:"FMT"
        ~doc:
          "print optimization remarks (versioning decisions, cuts, emitted \
           checks, condition optimizations, per-pass work) to stdout; \
           $(docv) is $(b,text) (default) or $(b,json) for one JSON object \
           per line.  The stream is deterministic: byte-identical at any \
           --jobs count")

let serve_opt =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "run as a compile service: read newline-delimited JSON compile \
           requests (or batches) from stdin and answer one response line \
           per request line on stdout, fanning distinct compiles across \
           --jobs worker domains and answering repeats from a \
           content-addressed artifact cache.  See also $(b,--socket), \
           $(b,--cache-max)")

let socket_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "with the compile service: listen on a Unix-domain socket at \
           $(docv) instead of stdin/stdout; the cache persists across \
           connections (implies $(b,--serve))")

let cache_max_opt =
  Arg.(
    value
    & opt int Fgv_service.Cache.default_max
    & info [ "cache-max" ] ~docv:"N"
        ~doc:
          "with the compile service: keep at most $(docv) artifacts in the \
           cache, evicting least-recently-used entries past that")

let log_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE[=LEVEL]"
        ~doc:
          "write a structured JSON-lines event log to $(docv): one object \
           per event (compiles, fuzz campaigns, service start, one access \
           record per service request), at $(b,debug), $(b,info) (default) \
           or $(b,warn) level.  Wall-clock data lives only under each \
           event's $(b,timing) member, so the rest of the log is \
           byte-identical at any --jobs count")

let cmd =
  let doc = "compile and run mini-C kernels with fine-grained program versioning" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "$(tname) compiles a mini-C kernel to predicated SSA, optionally \
         applies an optimization pipeline built around fine-grained program \
         versioning, and can print the IR, lower it to a CFG, or interpret \
         it under a cost model.  With $(b,--fuzz) it instead runs a \
         differential-fuzzing campaign over generated programs.";
      `S "COMPILE SERVICE";
      `P
        "$(b,--serve) turns $(tname) into a batch compile service speaking \
         newline-delimited JSON on stdin/stdout (or on a Unix socket with \
         $(b,--socket) PATH).  A request object carries $(b,source) plus \
         optional $(b,id), $(b,pipeline), $(b,no_restrict), $(b,emit_c), \
         $(b,heap); a JSON array of requests is one batch, compiled in \
         parallel.  Artifacts are cached content-addressed (key: \
         canonicalized source, pipeline, flags, tool version) with LRU \
         eviction at $(b,--cache-max) entries; cached responses are \
         byte-identical to fresh ones.  {\"op\": \"ping\"|\"stats\"|\
         \"metrics\"|\"shutdown\"} are control lines; $(b,metrics) returns \
         counters, cache stats, and request-latency histograms (add \
         \"format\":\"text\" for a Prometheus-style exposition).";
      `S "OBSERVABILITY";
      `P
        "$(b,--trace) FILE writes a Chrome trace-event JSON of the \
         compilation's span hierarchy (the service adds per-request spans \
         tagged with their sequence number).  $(b,--remarks)[=$(b,json)] \
         prints the optimization-remark stream.  $(b,--dump-ir)=DIR writes \
         before/after IR snapshots and unified diffs per pass.  \
         $(b,--stats)[=$(b,json)] prints the telemetry counters and \
         timers, each timer with a latency histogram.  $(b,--log) \
         FILE[=LEVEL] writes the structured event log.";
      `S Manpage.s_exit_status;
      `P "0 on success;";
      `P
        "1 when FILE does not lex, parse or lower (the message names the \
         stage, as the compile service's errors do);";
      `P
        "2 on usage errors, found before any work: an unknown pipeline; \
         a $(b,--stats) or $(b,--remarks) format other than $(b,text) or \
         $(b,json) ($(i,unknown --stats format ...)), checked before any \
         mode runs, so nothing is written to stdout and no fuzz campaign \
         starts; an $(b,-a) value that is not an integer or a float, \
         $(b,--heap) below 1, or a $(b,--dump-ir)=DIR that is not a \
         directory and cannot be made, reported as $(i,fgvc: -a: ...), \
         $(i,fgvc: --heap: ...) or $(i,fgvc: --dump-ir: ...); the \
         pipeline, $(b,-a), $(b,--heap) and DIR are checked before FILE \
         is read;";
      `P
        "3 on a compiler bug, reported as $(i,internal error: ...): a \
         pipeline that raised ($(i,pipeline crashed: ...)) or optimized \
         IR that fails verification;";
      `P "4 when $(b,--fuzz) found a miscompilation;";
      `P
        "5 when $(b,--run-native) found a native/interpreter differential \
         mismatch (or the native build of the kernel failed);";
      `P
        "6 when the $(b,--run) interpreter faulted, reported as the \
         differential contract's run class: $(i,fgvc: FILE: trap: ...) for \
         a trap (an out-of-bounds access for the given $(b,--heap), fewer \
         $(b,-a) values than the kernel has parameters, integer division by \
         zero), $(i,fgvc: FILE: undef-address OP) for an access through an \
         undefined address, $(i,fgvc: FILE: out of fuel) for exhausted \
         fuel.";
    ]
  in
  Cmd.v
    (Cmd.info "fgvc" ~doc ~version:version_string ~man)
    Term.(
      const run_driver $ file $ fuzz_opt $ seed_opt $ fuzz_report_opt
      $ fuzz_native_opt $ pipeline $ dump_ir $ dump_cfg $ run_flag $ args_opt
      $ heap_opt $ no_restrict $ emit_c_opt $ run_native_opt $ stats_opt
      $ jobs_opt $ trace_opt $ remarks_opt $ serve_opt $ socket_opt
      $ cache_max_opt $ log_opt)

let () = exit (Cmd.eval' cmd)
