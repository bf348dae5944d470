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
  ]
