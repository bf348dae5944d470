(* Tests for the work-stealing domain pool and its telemetry contract:
   deterministic result ordering, per-task exception capture, nested-map
   rejection, counter merging under contention, and the end-to-end
   determinism property the pool exists to uphold — a fuzz campaign and
   a bench figure produce identical output at --jobs 1 and --jobs 4. *)

module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module Pool = Fgv_support.Pool
module E = Fgv_bench.Experiments
module Campaign = Fgv_fuzz.Campaign

(* ------------------------------------------------- ordering & basics *)

let test_ordering () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int))
    "more jobs than tasks" [ 2; 4; 6 ]
    (Pool.map ~jobs:8 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_jobs_one_matches_parallel () =
  let xs = List.init 37 (fun i -> i - 5) in
  let f x = (x * 3) - 1 in
  Alcotest.(check (list int))
    "jobs:1 and jobs:4 agree"
    (Pool.map ~jobs:1 f xs)
    (Pool.map ~jobs:4 f xs)

(* ------------------------------------------------ exception handling *)

let test_exception_isolation () =
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else x * 10 in
  let results = Pool.try_map ~jobs:4 f (List.init 10 Fun.id) in
  List.iteri
    (fun i r ->
      match r with
      | Ok v when i mod 3 <> 0 ->
        Alcotest.(check int) "ok task" (i * 10) v
      | Error (Failure m) when i mod 3 = 0 ->
        Alcotest.(check string) "failing task" (string_of_int i) m
      | _ -> Alcotest.fail (Printf.sprintf "unexpected result at %d" i))
    results

let test_map_raises_lowest_index () =
  let f x = if x = 3 || x = 7 then failwith (string_of_int x) else x in
  (match Pool.map ~jobs:4 f (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m ->
    Alcotest.(check string) "lowest failing index wins" "3" m);
  (* all tasks still ran: the later failure is present in try_map *)
  let results = Pool.try_map ~jobs:4 f (List.init 10 Fun.id) in
  match List.nth results 7 with
  | Error (Failure m) -> Alcotest.(check string) "task 7 failed too" "7" m
  | _ -> Alcotest.fail "task 7 should have run and failed"

let test_nested_map_rejected () =
  let inner _ = Pool.map ~jobs:2 Fun.id [ 1; 2 ] in
  (* Nesting is rejected identically at any outer job count: the inner
     call raises Nested_map inside the task, captured per-task. *)
  List.iter
    (fun outer_jobs ->
      let results = Pool.try_map ~jobs:outer_jobs inner [ 0; 1 ] in
      List.iter
        (function
          | Error Pool.Nested_map -> ()
          | Ok _ -> Alcotest.fail "nested map must not succeed"
          | Error e -> raise e)
        results)
    [ 1; 4 ]

(* ------------------------------------------------- telemetry merging *)

let test_counter_merge_under_contention () =
  Tm.reset ();
  let task _ =
    for _ = 1 to 1000 do
      Tm.incr "pool.test.counter"
    done
  in
  ignore (Pool.map ~jobs:4 task (List.init 8 Fun.id));
  Alcotest.(check int)
    "8 tasks x 1000 increments" 8000
    (Tm.get "pool.test.counter");
  Tm.reset ()

let test_timer_merge () =
  Tm.reset ();
  let task _ = Tm.time "pool.test.timer" (fun () -> Sys.opaque_identity ()) in
  ignore (Pool.map ~jobs:4 task (List.init 6 Fun.id));
  let timers = Tm.timers () in
  (match
     List.find_opt (fun (name, _, _) -> name = "pool.test.timer") timers
   with
  | Some (_, total, count) ->
    (* counts and totals sum over the tasks' shards *)
    Alcotest.(check int) "timer count summed" 6 count;
    Alcotest.(check bool) "timer total non-negative" true (total >= 0.0)
  | None -> Alcotest.fail "timer not merged");
  Tm.reset ()

let test_isolated_merge_shard_roundtrip () =
  Tm.reset ();
  Tm.incr "pool.test.outer";
  let (), shard =
    Obs.isolated (fun () ->
        Tm.incr "pool.test.inner";
        Tm.incr "pool.test.inner")
  in
  Alcotest.(check int)
    "isolated work invisible before merge" 0
    (Tm.get "pool.test.inner");
  Alcotest.(check int) "outer counter untouched" 1 (Tm.get "pool.test.outer");
  Obs.merge shard;
  Alcotest.(check int)
    "isolated work visible after merge" 2
    (Tm.get "pool.test.inner");
  Tm.reset ()

(* A task that raises still hands its counters and remarks to the
   caller, in input order, at any job count. *)
let test_failing_task_telemetry () =
  let r0 = Tr.remarks_on () in
  Tr.set_remarks true;
  Fun.protect
    ~finally:(fun () ->
      Tr.set_remarks r0;
      Tr.reset ();
      Tm.reset ())
    (fun () ->
      List.iter
        (fun jobs ->
          Tm.reset ();
          Tr.reset ();
          let task i =
            Tm.incr "pool.test.tasks";
            Tr.remark (Tr.anchor (string_of_int i)) Tr.Plan_infeasible;
            if i mod 3 = 0 then failwith "boom";
            i
          in
          let results = Pool.try_map ~jobs task (List.init 10 Fun.id) in
          let label s = Printf.sprintf "%s at jobs:%d" s jobs in
          Alcotest.(check int) (label "failed tasks") 4
            (List.length (List.filter Result.is_error results));
          Alcotest.(check int) (label "every task counted") 10
            (Tm.get "pool.test.tasks");
          Alcotest.(check (list string))
            (label "remarks in input order")
            (List.init 10 string_of_int)
            (List.map (fun ((a : Tr.anchor), _) -> a.Tr.a_func) (Tr.remarks ())))
        [ 1; 4 ])

(* -------------------------------------------- end-to-end determinism *)

let run_campaign jobs =
  Tm.reset ();
  let outcome = Campaign.run ~jobs ~n:20 ~seed:42 () in
  let report = Fgv_support.Json.to_string (Campaign.report_json outcome) in
  let counters = Tm.counters () in
  Tm.reset ();
  (report, counters)

let test_campaign_determinism () =
  let report1, counters1 = run_campaign 1 in
  let report4, counters4 = run_campaign 4 in
  Alcotest.(check string)
    "fuzz report byte-identical at jobs 1 vs 4" report1 report4;
  Alcotest.(check (list (pair string int)))
    "campaign counters identical at jobs 1 vs 4" counters1 counters4

let run_figure jobs =
  Tm.reset ();
  let rows, delta = Tm.capture (fun () -> E.tsvc_rows ~check:false ~jobs ()) in
  let rendered = E.fig19_of_rows rows in
  Tm.reset ();
  (rendered, delta)

let test_figure_determinism () =
  let rows1, delta1 = run_figure 1 in
  let rows4, delta4 = run_figure 4 in
  Alcotest.(check string) "fig19 rows identical at jobs 1 vs 4" rows1 rows4;
  Alcotest.(check (list (pair string int)))
    "fig19 counter deltas identical at jobs 1 vs 4" delta1 delta4

let suite =
  [
    Alcotest.test_case "result ordering" `Quick test_ordering;
    Alcotest.test_case "jobs:1 matches jobs:4" `Quick
      test_jobs_one_matches_parallel;
    Alcotest.test_case "exception isolation" `Quick test_exception_isolation;
    Alcotest.test_case "map raises lowest index" `Quick
      test_map_raises_lowest_index;
    Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
    Alcotest.test_case "counter merge under contention" `Quick
      test_counter_merge_under_contention;
    Alcotest.test_case "timer merge" `Quick test_timer_merge;
    Alcotest.test_case "isolated/merge_shard round-trip" `Quick
      test_isolated_merge_shard_roundtrip;
    Alcotest.test_case "failing task telemetry reaches the caller" `Quick
      test_failing_task_telemetry;
    Alcotest.test_case "campaign determinism" `Slow test_campaign_determinism;
    Alcotest.test_case "figure determinism" `Slow test_figure_determinism;
  ]
