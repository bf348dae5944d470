(* Tests for telemetry: counter/timer semantics, JSON output
   well-formedness (checked with the independent JSON parser in
   {!Harness}, so emitter bugs cannot hide behind a lenient consumer),
   and reset-between-sessions behaviour. *)

module Tm = Fgv_support.Telemetry
module J = Fgv_support.Json

(* The independent JSON parser lives in {!Harness.parse_json} so the
   trace and pool suites can share it. *)
let parse_json = Harness.parse_json

(* ------------------------------------------------------------ counters *)

let test_counters () =
  Tm.reset ();
  Alcotest.(check int) "unbumped counter is 0" 0 (Tm.get "nope");
  Tm.incr "a";
  Tm.incr "a";
  Tm.incr ~by:5 "b";
  Alcotest.(check int) "incr twice" 2 (Tm.get "a");
  Alcotest.(check int) "incr by 5" 5 (Tm.get "b");
  Tm.set_max "depth" 3;
  Tm.set_max "depth" 1;
  Tm.set_max "depth" 7;
  Alcotest.(check int) "set_max keeps the maximum" 7 (Tm.get "depth");
  Alcotest.(check (list (pair string int)))
    "counters are sorted"
    [ ("a", 2); ("b", 5); ("depth", 7) ]
    (Tm.counters ())

let test_timers () =
  Tm.reset ();
  let r = Tm.time "t" (fun () -> 41 + 1) in
  Alcotest.(check int) "time returns the thunk's value" 42 r;
  (try Tm.time "t" (fun () -> failwith "boom") with Failure _ -> ());
  (match Tm.timers () with
  | [ ("t", total, count) ] ->
    Alcotest.(check int) "both invocations counted" 2 count;
    Alcotest.(check bool) "nonnegative total" true (total >= 0.0)
  | l -> Alcotest.failf "expected one timer, got %d" (List.length l));
  Alcotest.(check bool) "timer_total of unknown is 0" true
    (Tm.timer_total "unknown" = 0.0)

let test_reset_between_sessions () =
  Tm.reset ();
  Tm.incr "x";
  ignore (Tm.time "t" (fun () -> ()));
  Alcotest.(check bool) "session recorded something" true (Tm.counters () <> []);
  Tm.reset ();
  Alcotest.(check (list (pair string int))) "counters empty after reset" []
    (Tm.counters ());
  Alcotest.(check int) "timers empty after reset" 0 (List.length (Tm.timers ()));
  (* a fresh session starts from zero, not from stale values *)
  Tm.incr "x";
  Alcotest.(check int) "fresh session from zero" 1 (Tm.get "x")

let test_capture () =
  Tm.reset ();
  Tm.incr ~by:10 "base";
  let r, delta =
    Tm.capture (fun () ->
        Tm.incr ~by:3 "base";
        Tm.incr "fresh";
        "done")
  in
  Alcotest.(check string) "capture returns the value" "done" r;
  Alcotest.(check (list (pair string int)))
    "delta has only changed counters"
    [ ("base", 3); ("fresh", 1) ]
    delta;
  Alcotest.(check int) "registry keeps accumulating" 13 (Tm.get "base");
  (* a running maximum reads the region's own maximum, not its rise
     over what the caller held *)
  Tm.set_max "plan.max_depth" 3;
  let (), delta = Tm.capture (fun () -> Tm.set_max "plan.max_depth" 2) in
  Alcotest.(check (list (pair string int)))
    "max counter reads the region's maximum"
    [ ("plan.max_depth", 2) ]
    delta;
  Alcotest.(check int) "caller keeps its maximum" 3 (Tm.get "plan.max_depth")

(* ---------------------------------------------------------------- JSON *)

let test_json_escaping_roundtrip () =
  let doc =
    J.Assoc
      [
        ("quote\"back\\slash", J.String "tab\tnewline\nctrl\001");
        ("empty", J.Assoc []);
        ("list", J.List [ J.Int 1; J.Bool false; J.Null ]);
        ("neg", J.Int (-42));
        ("float", J.Float 2.5);
        ("whole_float", J.Float 3.0);
      ]
  in
  List.iter
    (fun minify ->
      let text = J.to_string ~minify doc in
      match parse_json text with
      | J.Assoc fields ->
        Alcotest.(check int) "all fields survive" 6 (List.length fields);
        (match List.assoc "quote\"back\\slash" fields with
        | J.String s ->
          Alcotest.(check string) "escapes round-trip" "tab\tnewline\nctrl\001" s
        | _ -> Alcotest.fail "expected string field");
        (match List.assoc "whole_float" fields with
        | J.Float x -> Alcotest.(check (float 0.0)) "3.0 stays float" 3.0 x
        | _ -> Alcotest.fail "whole float must not parse as int")
      | _ -> Alcotest.fail "expected an object")
    [ true; false ]

(* Byte identity with the reference codec ({!Harness.Json_reference}):
   the emitter must give the same bytes, minified or not, and the
   parser the same value or the same error text, position included. *)
module Ref = Harness.Json_reference

(* The generators live in {!Harness} so the service suite can share
   them. *)
let gen_json = Harness.gen_json

let prop_json_emitter_reference =
  QCheck2.Test.make ~name:"JSON emitter equals the reference emitter"
    ~count:1000 ~print:(Ref.to_string ~minify:true) gen_json (fun j ->
      List.for_all
        (fun minify -> J.to_string ~minify j = Ref.to_string ~minify j)
        [ true; false ])

(* Documents the reference emits, then up to three byte edits (replace,
   insert, delete, truncate); and texts spliced from JSON fragments and
   escapes the emitter never writes. *)
let gen_json_text =
  QCheck2.Gen.(
    let edit text (kind, at, c) =
      let n = String.length text in
      let at = at mod (n + 1) in
      match kind with
      | 0 when at < n -> String.mapi (fun i d -> if i = at then c else d) text
      | 1 ->
        String.sub text 0 at ^ String.make 1 c ^ String.sub text at (n - at)
      | 2 when at < n ->
        String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)
      | _ -> String.sub text 0 at
    in
    let encoded =
      let* j = gen_json in
      let* minify = bool in
      let* edits =
        list_size (int_range 0 3)
          (triple (int_range 0 3) nat (map Char.chr (int_range 0 255)))
      in
      pure (List.fold_left edit (Ref.to_string ~minify j) edits)
    in
    let spliced =
      map (String.concat "")
        (list_size (int_range 0 12)
           (oneofl
              [ "{"; "}"; "["; "]"; "\""; "\\"; "\\u00e9"; "\\u0_1f"; "\\u001";
                "\\u12"; "\\/"; "\\b"; "\\f"; "\\x"; ":"; ","; " "; "\n"; "true";
                "tru"; "false"; "null"; "nul"; "-"; "1.5e3"; "1e999"; "-0"; "12";
                "0x1"; "\001"; "\000"; "\xc3\xa9"; "ab"; "\\ud83d";
                "\\ude00"; "\\u00E9"; "01"; "1."; ".5"; "e5"; "E+"; "0" ]))
    in
    oneof [ encoded; spliced ])

let prop_json_parser_reference =
  QCheck2.Test.make ~name:"JSON parser equals the reference parser"
    ~count:2000 ~print:String.escaped gen_json_text (fun text ->
      match (J.of_string text, Ref.of_string text) with
      | Ok a, Ok b -> compare a b = 0
      | Error a, Error b -> a = b
      | _ -> false)

(* RFC 8259 strings and numbers: a [\u] escape decodes to UTF-8, a
   surrogate pair to one 4-byte sequence, and a surrogate without its
   partner is an error at its digits; numbers have no leading zeros and
   no digitless fraction, and an integer too large for an int is a
   float. *)
let test_json_rfc8259 () =
  let json =
    Alcotest.testable
      (fun f j -> Format.pp_print_string f (J.to_string ~minify:true j))
      (fun a b -> compare a b = 0)
  in
  let check text expected =
    Alcotest.(check (result json string)) text expected (J.of_string text)
  in
  check {|"\u00e9"|} (Ok (J.String "\xc3\xa9"));
  check {|"\u00E9 \u2603"|} (Ok (J.String "\xc3\xa9 \xe2\x98\x83"));
  check {|"\ud83d\ude00"|} (Ok (J.String "\xf0\x9f\x98\x80"));
  check {|"a\u0000\u007f\u0080\u07ff\u0800\uffff"|}
    (Ok (J.String "a\000\127\xc2\x80\xdf\xbf\xe0\xa0\x80\xef\xbf\xbf"));
  check {|"\udbff\udfff"|} (Ok (J.String "\xf4\x8f\xbf\xbf"));
  check {|"\ud83d"|} (Error "at 3: bad \\u escape");
  check {|"\ud83dx"|} (Error "at 3: bad \\u escape");
  check {|"ab\ud83d\u0041"|} (Error "at 5: bad \\u escape");
  check {|"\ud83d\ud83d"|} (Error "at 3: bad \\u escape");
  check {|"\ude00"|} (Error "at 3: bad \\u escape");
  check {|"\ude00\ud83d"|} (Error "at 3: bad \\u escape");
  check {|"\u0_1f"|} (Error "at 3: bad \\u escape");
  check {|"\u+01f"|} (Error "at 3: bad \\u escape");
  check {|"\u12"|} (Error "at 3: truncated \\u escape");
  List.iter
    (fun text ->
      let at = String.length text in
      check text (Error (Printf.sprintf "at %d: bad number %s" at text)))
    [ "01"; "-01"; "1."; "1.e5"; "-01.e5"; "-"; "1e"; "1e+"; "00"; "1-2" ];
  check "[01]" (Error "at 3: bad number 01");
  check "+1" (Error "at 0: expected a value");
  check "0" (Ok (J.Int 0));
  check "-0" (Ok (J.Int 0));
  check "10" (Ok (J.Int 10));
  check "1E+2" (Ok (J.Float 100.0));
  check "-1.5e-3" (Ok (J.Float (-0.0015)));
  check "0.5" (Ok (J.Float 0.5));
  check "4611686018427387903" (Ok (J.Int max_int));
  check "-4611686018427387904" (Ok (J.Int min_int));
  check "4611686018427387904" (Ok (J.Float 4611686018427387904.0));
  check "99999999999999999999" (Ok (J.Float 1e20))

let test_snapshot_well_formed () =
  Tm.reset ();
  Tm.incr ~by:2 "cut.edges";
  Tm.incr "plan.inferred";
  ignore (Tm.time "pipeline.sv" (fun () -> ()));
  let text = J.to_string (Tm.snapshot ()) in
  match parse_json text with
  | J.Assoc [ ("counters", J.Assoc cs); ("timers", J.Assoc ts) ] ->
    Alcotest.(check (list string))
      "counter keys sorted" [ "cut.edges"; "plan.inferred" ] (List.map fst cs);
    Alcotest.(check bool) "counter value" true
      (List.assoc "cut.edges" cs = J.Int 2);
    (match ts with
    | [ ("pipeline.sv", J.Assoc fields) ] ->
      Alcotest.(check bool) "timer has count" true
        (List.assoc "count" fields = J.Int 1);
      (match List.assoc "total_s" fields with
      | J.Float _ | J.Int _ -> ()
      | _ -> Alcotest.fail "total_s must be numeric")
    | _ -> Alcotest.fail "expected one timer entry")
  | _ -> Alcotest.fail "snapshot must be {counters, timers}"

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counters;
    Alcotest.test_case "timer semantics" `Quick test_timers;
    Alcotest.test_case "reset between sessions" `Quick test_reset_between_sessions;
    Alcotest.test_case "capture deltas" `Quick test_capture;
    Alcotest.test_case "JSON escaping round-trip" `Quick test_json_escaping_roundtrip;
    Alcotest.test_case "snapshot well-formed" `Quick test_snapshot_well_formed;
    Alcotest.test_case "JSON strings and numbers follow RFC 8259" `Quick
      test_json_rfc8259;
    QCheck_alcotest.to_alcotest prop_json_emitter_reference;
    QCheck_alcotest.to_alcotest prop_json_parser_reference;
  ]
