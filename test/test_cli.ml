(* The fgvc driver's answers to bad [--run] inputs: each is a typed
   message with a documented exit status (2 for a malformed flag, 6 for
   an interpreter trap), never an uncaught exception.  And fgvc agrees
   with the compile service: its [--emit-c] output is the service's
   [emit_c] artifact, and its frontend errors are the service's. *)

(* the driver dune builds next to this test's directory *)
let fgvc =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "fgvc.exe" ]

let kernel =
  "kernel k(float* a, float* b, int n) {\n\
  \  for (int i = 0; i < n; i = i + 1) { a[i] = b[i] * 2.0 + 1.0; }\n\
   }\n"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Exit status and standard error of [fgvc FILE -p sv+v --run ARGS]. *)
let run_kernel file args =
  let err = Filename.temp_file "fgvc" ".err" in
  let cmd =
    Filename.quote_command fgvc ~stdout:Filename.null ~stderr:err
      ([ file; "-p"; "sv+v"; "--run" ] @ args)
  in
  let rc = Sys.command cmd in
  let msg = read_file err in
  Sys.remove err;
  (rc, msg)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_run_user_errors () =
  let file = Filename.temp_file "kernel" ".c" in
  let oc = open_out file in
  output_string oc kernel;
  close_out oc;
  let expect args rc prefix =
    let rc', msg = run_kernel file args in
    let what = String.concat " " args in
    Alcotest.(check int) (what ^ ": exit status") rc rc';
    if not (starts_with prefix msg) then
      Alcotest.failf "%s: expected a message starting %S, got %S" what prefix
        msg
  in
  expect [ "-a"; "0,64,16"; "--heap"; "256" ] 0 "";
  expect [ "-a"; "0,x"; "--heap"; "256" ] 2 "fgvc: -a: \"x\" is not";
  expect [ "-a"; "0,64,16"; "--heap"; "0" ] 2 "fgvc: --heap: ";
  expect [ "-a"; "0,64,16"; "--heap=-1" ] 2 "fgvc: --heap: ";
  expect [ "-a"; "0,64"; "--heap"; "256" ] 6
    (Printf.sprintf "fgvc: %s: trap: missing argument 2" file);
  expect [ "-a"; "0,64,16"; "--heap"; "32" ] 6
    (Printf.sprintf "fgvc: %s: trap: out-of-bounds access" file);
  Sys.remove file

(* Usage errors found before any work: a bad [--stats] format in file
   mode and in fuzz mode, and a [--dump-ir=DIR] that cannot be made.
   Each exits 2 with its message and writes nothing to stdout; the fuzz
   campaign does not run, so it writes no report. *)
let test_usage_errors_before_work () =
  let dir = Filename.temp_dir "fgvc" "" in
  let file = Filename.concat dir "k.c" in
  let oc = open_out file in
  output_string oc kernel;
  close_out oc;
  let expect args prefix =
    let out = Filename.concat dir "stdout" in
    let err = Filename.concat dir "stderr" in
    let rc =
      Sys.command (Filename.quote_command fgvc ~stdout:out ~stderr:err args)
    in
    let what = String.concat " " args in
    Alcotest.(check int) (what ^ ": exit status") 2 rc;
    Alcotest.(check string) (what ^ ": stdout") "" (read_file out);
    let msg = read_file err in
    if not (starts_with prefix msg) then
      Alcotest.failf "%s: expected a message starting %S, got %S" what prefix
        msg;
    Sys.remove out;
    Sys.remove err
  in
  let bad_stats = "unknown --stats format bogus (expected text or json)\n" in
  expect [ file; "-p"; "sv+v"; "--dump-ir"; "--stats=bogus" ] bad_stats;
  let report = Filename.concat dir "report.json" in
  expect [ "--fuzz"; "1"; "--stats=bogus"; "--fuzz-report"; report ] bad_stats;
  Alcotest.(check bool) "no fuzz report" false (Sys.file_exists report);
  let missing = Filename.concat (Filename.concat dir "missing") "dir" in
  expect
    [ file; "-p"; "sv+v"; "--dump-ir=" ^ missing ]
    (Printf.sprintf "fgvc: --dump-ir: %s: " missing);
  expect [ file; "-p"; "sv+v"; "--dump-ir=" ^ file ]
    (Printf.sprintf "fgvc: --dump-ir: %s: not a directory" file);
  Sys.remove file;
  Sys.rmdir dir

(* [fgvc FILE -p sv+v --emit-c OUT --heap 32] writes, byte for byte, the
   C the compile service returns for the same source, pipeline and heap:
   both resolve the pipeline and bake in the heap image the same way. *)
let test_emit_c_matches_service () =
  let module S = Fgv_service.Service in
  let module P = Fgv_service.Protocol in
  let file = Filename.temp_file "kernel" ".c" in
  let oc = open_out file in
  output_string oc kernel;
  close_out oc;
  let out = Filename.temp_file "kernel" ".emitted.c" in
  let cmd =
    Filename.quote_command fgvc ~stdout:Filename.null
      [ file; "-p"; "sv+v"; "--emit-c"; out; "--heap"; "32" ]
  in
  Alcotest.(check int) "fgvc --emit-c exit status" 0 (Sys.command cmd);
  let emitted = read_file out in
  Sys.remove file;
  Sys.remove out;
  let rq =
    {
      P.rq_id = "";
      rq_source = kernel;
      rq_pipeline = "sv+v";
      rq_no_restrict = false;
      rq_emit_c = true;
      rq_heap = 32;
    }
  in
  let reply = P.response_line (S.handle_request (S.create ~jobs:1 ()) rq) in
  match
    Result.to_option (Fgv_support.Json.of_string reply)
    |> Fun.flip Option.bind (Fgv_support.Json.string_member "c")
  with
  | Some c -> Alcotest.(check string) "the service's C" c emitted
  | None -> Alcotest.failf "service answered %s" reply

(* A source that does not lex, parse or lower: fgvc exits 1 and prints
   after [fgvc: FILE: ] exactly the [error] the compile service answers
   for it.  With an unknown pipeline as well, the usage error wins: exit
   2, before the file is read. *)
let bad_sources =
  [
    "kernel k(float* a) { a[0] = $; }\n";
    "kernel k(float* a) { a[0] = ; }\n";
    "kernel k(float* a) { a[0] = zz; }\n";
  ]

let test_frontend_errors_match_service () =
  let module S = Fgv_service.Service in
  let module P = Fgv_service.Protocol in
  List.iter
    (fun src ->
      let file = Filename.temp_file "bad" ".c" in
      let oc = open_out file in
      output_string oc src;
      close_out oc;
      let fgvc_run pipeline =
        let err = Filename.temp_file "fgvc" ".err" in
        let rc =
          Sys.command
            (Filename.quote_command fgvc ~stdout:Filename.null ~stderr:err
               [ file; "-p"; pipeline ])
        in
        let msg = read_file err in
        Sys.remove err;
        (rc, msg)
      in
      let rc, msg = fgvc_run "sv+v" in
      Alcotest.(check int) (src ^ ": exit status") 1 rc;
      let service =
        match
          S.handle_request (S.create ~jobs:1 ())
            {
              P.rq_id = "";
              rq_source = src;
              rq_pipeline = "sv+v";
              rq_no_restrict = false;
              rq_emit_c = false;
              rq_heap = P.default_heap;
            }
        with
        | P.Failed { error; _ } -> error
        | r -> Alcotest.failf "service answered %s" (P.response_line r)
      in
      Alcotest.(check string) (src ^ ": message")
        (Printf.sprintf "fgvc: %s: %s\n" file service)
        msg;
      let rc, msg = fgvc_run "bogus" in
      Alcotest.(check int) (src ^ " -p bogus: exit status") 2 rc;
      if not (starts_with "unknown pipeline bogus" msg) then
        Alcotest.failf "%s -p bogus: got %S" src msg;
      Sys.remove file)
    bad_sources

let suite =
  [
    Alcotest.test_case "--run user errors exit with typed messages" `Quick
      test_run_user_errors;
    Alcotest.test_case "usage errors exit 2 before any work" `Quick
      test_usage_errors_before_work;
    Alcotest.test_case "--emit-c equals the service's emit_c artifact" `Quick
      test_emit_c_matches_service;
    Alcotest.test_case "frontend errors equal the service's" `Quick
      test_frontend_errors_match_service;
  ]
