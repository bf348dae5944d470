(* Tests for the versioning framework on the paper's running example
   (Fig. 1/2/12/15) and assorted kernels: plan inference shape, nested
   plans, materialization, and above all observational equivalence of the
   versioned program. *)

open Fgv_pssa
open Fgv_analysis
open Harness
module V = Fgv_versioning

let fig1_src =
  {|
  kernel fig1(float* X, float* Y) {
    Y[0] = 0.0;
    if (X[0] != 0.0) { cold_func(); }
    Y[1] = 0.0;
  }
|}

(* The top-level store instructions of a function, in program order. *)
let top_stores (f : Ir.func) =
  List.filter_map
    (fun item ->
      match item with
      | Ir.I v -> (
        match (Ir.inst f v).kind with Ir.Store _ -> Some (Ir.NI v) | _ -> None)
      | Ir.L _ -> None)
    f.fbody

let test_fig1_plan_shape () =
  let f = compile fig1_src in
  let s = V.Api.create f Ir.Rtop in
  let stores = top_stores f in
  Alcotest.(check int) "two stores" 2 (List.length stores);
  Alcotest.(check bool) "stores are initially dependent" false
    (V.Api.already_independent s stores);
  match V.Api.request_independence ~record:false s stores with
  | None -> Alcotest.fail "expected a feasible plan"
  | Some plan ->
    (* primary: versions both stores under the call's predicate c *)
    Alcotest.(check bool) "plan is not trivial" false (V.Plan.is_trivial plan);
    Alcotest.(check int) "one primary condition" 1 (List.length plan.V.Plan.p_conds);
    (match plan.V.Plan.p_conds with
    | [ Depcond.Apred _ ] -> ()
    | [ Depcond.Aintersect _ ] -> Alcotest.fail "primary condition should be the call predicate"
    | _ -> Alcotest.fail "unexpected primary conditions");
    (* nested: a secondary plan with the X/Y intersection check *)
    Alcotest.(check int) "one secondary plan" 1
      (List.length plan.V.Plan.p_secondaries);
    let sec = List.hd plan.V.Plan.p_secondaries in
    (match sec.V.Plan.p_conds with
    | [ Depcond.Aintersect _ ] -> ()
    | _ -> Alcotest.fail "secondary condition should be an intersection")

let run_both src request mems_args =
  let f_plain = compile src in
  let f_versioned = compile src in
  let s = V.Api.create f_versioned Ir.Rtop in
  (match request f_versioned s with
  | None -> Alcotest.fail "expected a feasible plan"
  | Some (_ : V.Plan.t) -> ());
  ignore (V.Api.materialize s);
  (match Verifier.verify_or_message f_versioned with
  | None -> ()
  | Some msg -> Alcotest.failf "versioned function is ill-formed: %s" msg);
  List.iter
    (fun (mem, args) ->
      let a = run_pssa f_plain ~args ~mem in
      let b = run_pssa f_versioned ~args ~mem in
      if Interp.(observation_diff (observe a) (observe b)) <> None then
      begin
        print_string (Printer.to_string f_versioned);
        Alcotest.failf "versioning changed behaviour (args %s)"
          (String.concat ","
             (List.map (fun v -> Value.to_string v) args))
      end)
    mems_args;
  f_versioned

let test_fig1_materialization_equivalence () =
  let mem () = float_mem 16 (fun i -> float_of_int (i mod 3)) in
  let inputs =
    [
      (mem (), ints [ 4; 1 ]); (* no alias, X[0] != 0: call runs *)
      (mem (), ints [ 3; 3 ]); (* X = Y: store kills the condition *)
      (mem (), ints [ 4; 3 ]); (* X = Y + 1: aliases the second store *)
      (float_mem 16 (fun _ -> 0.0), ints [ 4; 1 ]); (* call never runs *)
      (* X = Y with X[0] initially nonzero: the original stores zero
         BEFORE the load, so the call must NOT run — any version that
         hoists the real load above the store gets this wrong *)
      (float_mem 16 (fun _ -> 1.0), ints [ 5; 5 ]);
      (float_mem 16 (fun _ -> 1.0), ints [ 6; 5 ]); (* X = Y+1 nonzero *)
    ]
  in
  let f =
    run_both fig1_src
      (fun f s -> V.Api.request_independence s (top_stores f))
      inputs
  in
  (* after versioning, the fast-path stores must be pairwise independent *)
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let stores =
    List.filter
      (fun n ->
        match n with
        | Ir.NI v -> (
          match (Ir.inst f v).kind with
          | Ir.Store _ -> not (Pred.equal (Ir.inst f v).ipred Pred.tru)
          | _ -> false)
        | _ -> false)
      (Array.to_list g.Depgraph.nodes)
  in
  Alcotest.(check bool) "versioned function has versioned stores" true
    (List.length stores >= 2)

let test_fig1_fast_path_taken () =
  (* when X and Y do not alias, the original (check-passing) stores should
     execute and the clones should be skipped *)
  let f = compile fig1_src in
  let s = V.Api.create f Ir.Rtop in
  (match V.Api.request_independence s (top_stores f) with
  | None -> Alcotest.fail "expected plan"
  | Some _ -> ());
  ignore (V.Api.materialize s);
  let mem = float_mem 16 (fun _ -> 1.0) in
  let out = run_pssa f ~args:(ints [ 4; 1 ]) ~mem in
  (* the versioned program must still make the call exactly once *)
  Alcotest.(check int) "call count" 1 (List.length out.call_trace);
  (* skipped instructions exist (the clones) *)
  Alcotest.(check bool) "clones skipped" true (out.counters.skipped > 0)

(* Conditional store blocking reordering: store under a predicate between
   two stores we want to pack. *)
let cond_store_src =
  {|
  kernel condstore(float* a, float* b, int n, int k) {
    a[0] = 1.0;
    if (n > 10) { b[k] = 2.0; }
    a[1] = 3.0;
  }
|}

let test_conditional_store_versioning () =
  let mem () = float_mem 16 (fun _ -> 0.0) in
  let inputs =
    [
      (mem (), ints [ 0; 4; 20; 1 ]); (* store executes, no alias *)
      (mem (), ints [ 0; 0; 20; 1 ]); (* store executes, b[k] = a[1]: alias *)
      (mem (), ints [ 0; 4; 5; 1 ]); (* store predicated off *)
      (mem (), ints [ 2; 0; 20; 2 ]); (* b[k] = a[0] overlap pattern *)
    ]
  in
  ignore
    (run_both cond_store_src
       (fun f s -> V.Api.request_independence s (top_stores f))
       inputs)

(* Unprovable pointer aliasing between plain loads/stores. *)
let may_alias_src =
  {|
  kernel mayalias(float* a, float* b) {
    a[0] = 1.0;
    float x = b[0];
    a[1] = x + 1.0;
  }
|}

let test_may_alias_versioning () =
  let mem () = float_mem 8 (fun i -> float_of_int i) in
  let inputs =
    [
      (mem (), ints [ 0; 4 ]);
      (mem (), ints [ 0; 0 ]); (* b = a: load reads the stored value *)
      (mem (), ints [ 0; 1 ]); (* b = a+1: the second store clobbers b[0] *)
    ]
  in
  ignore
    (run_both may_alias_src
       (fun f s -> V.Api.request_independence s (top_stores f))
       inputs)

(* Versioning whole loops: two loops that may write overlapping arrays. *)
let loop_pair_src =
  {|
  kernel looppair(float* a, float* b, int n) {
    for (int i = 0; i < n; i = i + 1) { a[i] = a[i] + 1.0; }
    for (int j = 0; j < n; j = j + 1) { b[j] = b[j] * 2.0; }
  }
|}

let top_loops (f : Ir.func) =
  List.filter_map
    (fun item -> match item with Ir.L l -> Some (Ir.NL l) | Ir.I _ -> None)
    f.fbody

let test_loop_versioning () =
  let mem () = float_mem 32 (fun i -> float_of_int i) in
  let inputs =
    [
      (mem (), ints [ 0; 16; 8 ]); (* disjoint *)
      (mem (), ints [ 0; 0; 8 ]); (* identical *)
      (mem (), ints [ 0; 4; 8 ]); (* overlapping *)
      (mem (), ints [ 0; 16; 0 ]); (* zero trip *)
    ]
  in
  let f =
    run_both loop_pair_src
      (fun f s -> V.Api.request_independence s (top_loops f))
      inputs
  in
  (* the function should now contain four loops (two versions of each) *)
  Alcotest.(check int) "loop count" 4 (List.length (top_loops f))

(* Infeasible case: unconditional dependence through SSA values. *)
let infeasible_src =
  {|
  kernel infeasible(float* a) {
    float x = a[0];
    a[1] = x * 2.0;
  }
|}

let test_infeasible () =
  let f = compile infeasible_src in
  let s = V.Api.create f Ir.Rtop in
  (* make the store independent of the load it reads from: impossible *)
  let load =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).kind with Ir.Load _ -> Some (Ir.NI v) | _ -> None)
        | _ -> None)
      f.fbody
    |> Option.get
  in
  let store = List.hd (top_stores f) in
  match V.Api.request_separation ~record:false s ~nodes:[ store ] ~input_nodes:[ load ] with
  | None -> () (* hmm: store depends on load via operand: infeasible *)
  | Some plan ->
    if not (V.Plan.is_trivial plan) then
      Alcotest.fail "expected infeasibility or triviality"

(* ----------------------------------------------------- golden statistics *)

(* Lock the framework's §VI work counters on two representative kernels.
   The pipelines are deterministic, so any drift in these numbers means a
   behavioural change in plan inference, the cut finder, or
   materialization — which must be deliberate and re-recorded here. *)

module Tm = Fgv_support.Telemetry
module W = Fgv_bench.Workload

let golden_counters ~config name kernels =
  let k = List.find (fun k -> k.W.k_name = name) kernels in
  Tm.reset ();
  ignore (W.compile config k);
  Tm.counters ()

let check_golden expected actual =
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want
        (try List.assoc name actual with Not_found -> 0))
    expected

let test_golden_stats_s131 () =
  let actual =
    golden_counters
      ~config:("sv+v", true)
      "s131" Fgv_bench.Tsvc.kernels
  in
  check_golden
    [
      ("plan.requests", 5);
      ("plan.inferred", 5);
      ("plan.conds", 24);
      ("plan.max_secondary_depth", 0);
      ("cut.queries", 5);
      ("cut.edges", 24);
      ("cut.graph_nodes", 139);
      ("cut.maxflow_augmenting", 24);
      ("cut.already_independent", 1);
      ("materialize.plans", 1);
      ("materialize.checks_emitted", 1);
      ("materialize.cloned_insts", 16);
      ("materialize.versioning_phis", 12);
    ]
    actual

let test_golden_stats_floyd_warshall () =
  let actual =
    golden_counters
      ~config:("sv+v", false)
      "floyd-warshall"
      Fgv_bench.Polybench.kernels
  in
  check_golden
    [
      ("plan.requests", 7);
      ("plan.inferred", 7);
      ("plan.conds", 51);
      ("cut.queries", 7);
      ("cut.edges", 66);
      ("cut.graph_nodes", 273);
      ("materialize.plans", 1);
      ("materialize.cloned_insts", 27);
      ("materialize.versioning_phis", 23);
      ("pass.licm.hoisted", 104);
      ("pass.slp.vectors", 6);
    ]
    actual

let suite =
  [
    Alcotest.test_case "fig1 plan shape (nested)" `Quick test_fig1_plan_shape;
    Alcotest.test_case "fig1 materialization equivalence" `Quick
      test_fig1_materialization_equivalence;
    Alcotest.test_case "fig1 fast path" `Quick test_fig1_fast_path_taken;
    Alcotest.test_case "conditional store" `Quick test_conditional_store_versioning;
    Alcotest.test_case "may-alias load" `Quick test_may_alias_versioning;
    Alcotest.test_case "loop versioning" `Quick test_loop_versioning;
    Alcotest.test_case "infeasible request" `Quick test_infeasible;
    Alcotest.test_case "golden stats: s131" `Quick test_golden_stats_s131;
    Alcotest.test_case "golden stats: floyd-warshall" `Quick
      test_golden_stats_floyd_warshall;
  ]
