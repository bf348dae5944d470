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
  match V.Api.request_separation s ~nodes:[ store ] ~input_nodes:[ load ] with
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

(* ------------------------------------ materialization vs its reference *)

(* Each level of [Materialize] places its checks, clones and phis with
   one rebuild of the region's items; [Materialize_reference] inserts
   them one at a time.  Each side materializes the same plan trees on
   its own compile of the same source, in its own predicate generation,
   and must leave the same IR and return the same answer and
   substitution, with the same remarks and counter deltas. *)

module Obs = Fgv_support.Obs
module G = Fgv_fuzz.Generator

type observed = {
  ok : bool;
  subst : int list; (* on every value id *)
  remarks : (Obs.Remark.anchor * Obs.Remark.remark) list;
  counters : (string * int) list;
  ir : string;
}

let observe materialize f region trees =
  let ((ok, subst), remarks), counters =
    Tm.capture (fun () ->
        Obs.collect_remarks (fun () -> materialize f region trees))
  in
  {
    ok;
    subst = List.init f.Ir.next_value subst;
    remarks;
    counters;
    ir = Printer.to_string f;
  }

(* The first difference between two lists of observations. *)
let observed_difference reference rebuilt =
  let render o =
    let remark r =
      Fgv_support.Json.to_string ~minify:true (Fgv_support.Trace.remark_json r)
    in
    Printf.sprintf "ok %b\nsubst %s\nremarks\n%s\ncounters %s\n%s" o.ok
      (String.concat " " (List.map string_of_int o.subst))
      (String.concat "\n" (List.map remark o.remarks))
      (String.concat " "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) o.counters))
      o.ir
  in
  if List.length reference <> List.length rebuilt then
    Some
      (Printf.sprintf "%d materialized regions vs %d" (List.length reference)
         (List.length rebuilt))
  else
    List.find_map
      (fun (a, b) ->
        if a = b then None
        else
          Some
            (Printf.sprintf "reference:\n%s\nvs one rebuild:\n%s" (render a)
               (render b)))
      (List.combine reference rebuilt)

(* The plan trees materialized on [region]: one per pair of the region's
   memory nodes that needs versioning, the first eight of them (each
   tree versions its nodes again, so a region's function grows with
   every tree: a top region's thirty trees made 37,000 values), then one
   that nests a second plan and a copy of the first, without its
   secondaries, under the first, so that a level holds two or three
   condition groups. *)
let region_trees f region =
  let s = V.Api.create f region in
  let memory =
    List.filter_map
      (fun item ->
        if Ir.memory_insts f item = [] then None
        else Some (Ir.node_of_item item))
      (Ir.region_items f region)
  in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> [ a; b ]) rest @ pairs rest
  in
  let plans =
    List.to_seq (pairs memory)
    |> Seq.filter_map (fun nodes ->
           match V.Api.request_independence ~record:false s nodes with
           | Some p when not (V.Plan.is_trivial p) -> Some p
           | _ -> None)
    |> Seq.take 8 |> List.of_seq
  in
  match plans with
  | first :: second :: _ ->
    let stripped = { first with V.Plan.p_secondaries = [] } in
    plans
    @ [
        {
          first with
          V.Plan.p_secondaries =
            first.V.Plan.p_secondaries @ [ second; stripped ];
        };
      ]
  | _ -> plans

(* A generated program under [o3-novec], then every region's trees
   materialized by [materialize], innermost region first. *)
let materialize_generated materialize fd =
  match
    Fgv_frontend.Compile.fdecl (Fgv_passes.Pipelines.run "o3-novec") fd
  with
  | Error e -> Alcotest.fail (Fgv_frontend.Compile.message e)
  | Ok f ->
    List.filter_map
      (fun region ->
        match region_trees f region with
        | [] -> None
        | trees -> Some (observe materialize f region trees))
      (Ir.regions f)

let generated config seed = G.generate ~config:(G.vary config ~seed) ~seed ()

let prop_materialize_matches_reference (label, config) =
  QCheck2.Test.make
    ~name:("materialization matches its per-insertion reference: " ^ label)
    ~count:25
    ~print:(fun seed -> G.render (generated config seed))
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let fd = generated config seed in
      let reference = materialize_generated Materialize_reference.run fd in
      match
        observed_difference reference
          (materialize_generated V.Materialize.run fd)
      with
      | Some report -> QCheck2.Test.fail_report report
      | None -> true)

(* Hand-built plan trees over one kernel, for the paths no generated
   request reaches.  In its top region, in program order: the compares
   [n > 2] and [n > 3], each guarding a store; loop L0 summing [b], the
   loop's guard compare and its etas [i] and [s]; the store [a[0] = 1],
   a load of [a[0]] into [x] and an opaque read into [r]; then the
   compares [x > 0], [s > 0] and [r > 0], each guarding a store.  A
   level processes its condition groups in descending order of their
   literals, so a group on a later compare goes first. *)
let mat_src =
  {|
  kernel mat(float* a, float* b, int n) {
    if (n > 2) { b[3] = 0.0; }
    if (n > 3) { b[4] = 0.0; }
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) { s = s + b[i]; }
    a[0] = 1.0;
    float x = a[0];
    float r = opaque_read(0);
    if (x > 0.0) { b[0] = x; }
    if (s > 0.0) { b[1] = s; }
    if (r > 0.0) { b[2] = r; }
  }
|}

type mat = {
  f : Ir.func;
  n_gt_2 : Ir.value_id;
  n_gt_3 : Ir.value_id;
  x_gt_0 : Ir.value_id;
  s_gt_0 : Ir.value_id;
  r_gt_0 : Ir.value_id;
  loop : Ir.loop_id;
  body_load : Ir.value_id; (* the load of b[i] inside the loop *)
  eta_s : Ir.value_id;
  stores : Ir.value_id list; (* b[3], b[4], a[0], b[0], b[1], b[2] *)
}

let mat () =
  let f = compile mat_src in
  let top kind =
    List.filter_map
      (function
        | Ir.I v when kind (Ir.inst f v).Ir.kind -> Some v | _ -> None)
      f.Ir.fbody
  in
  let cmps = top (function Ir.Cmp _ -> true | _ -> false) in
  let loop =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let body_load =
    List.find_map
      (function
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Load _ -> Some v | _ -> None)
        | Ir.L _ -> None)
      (Ir.loop f loop).Ir.body
    |> Option.get
  in
  let eta_s =
    List.find
      (fun v -> (Ir.inst f v).Ir.name = "s")
      (top (function Ir.Eta _ -> true | _ -> false))
  in
  {
    f;
    n_gt_2 = List.nth cmps 0;
    n_gt_3 = List.nth cmps 1;
    (* cmps 2 is the loop's guard *)
    x_gt_0 = List.nth cmps 3;
    s_gt_0 = List.nth cmps 4;
    r_gt_0 = List.nth cmps 5;
    loop;
    body_load;
    eta_s;
    stores = top (function Ir.Store _ -> true | _ -> false);
  }

let plan ?(secondaries = []) nodes cond =
  {
    V.Plan.p_nodes = nodes;
    p_inputs = [];
    p_conds = [ Depcond.Apred (Pred.lit cond) ];
    p_cut_edge_ids = [];
    p_secondaries = secondaries;
    p_scope_pairs = [];
  }

(* One level holding [plans]: the secondaries of a tree with no nodes of
   its own. *)
let level m plans = plan ~secondaries:plans [] m.n_gt_2

(* [trees m] materialized at the top of two compiles of [mat_src], by the
   reference and by the rebuilt pass: equal observations, and IR that
   verifies.  Returns the rebuilt side's observation. *)
let mat_case trees =
  let run materialize =
    let m = mat () in
    let o = observe materialize m.f Ir.Rtop (trees m) in
    (match Verifier.verify_or_message m.f with
    | None -> ()
    | Some msg -> Alcotest.failf "ill-formed after materialization: %s" msg);
    o
  in
  let reference = run Materialize_reference.run in
  let rebuilt = run V.Materialize.run in
  (match observed_difference [ reference ] [ rebuilt ] with
  | Some report -> Alcotest.fail report
  | None -> ());
  rebuilt

(* A refusal: [ok = false], the reason in the remarks, equal to the
   reference. *)
let refusal_case ?(checks = 0) reason trees () =
  let o = mat_case trees in
  Alcotest.(check bool) "refused" false o.ok;
  Alcotest.(check (list string))
    "the refusal's reason"
    [ "Materialize: " ^ reason ]
    (List.filter_map
       (function
         | _, Obs.Remark.Materialize_aborted { reason } -> Some reason
         | _ -> None)
       o.remarks);
  Alcotest.(check int) "checks placed before the refusal" checks
    (Option.value ~default:0
       (List.assoc_opt "materialize.checks_emitted" o.counters))

let refusal_cases =
  [
    ( "versioned node not in region",
      refusal_case "versioned node not in region" (fun m ->
          [ plan [ Ir.NI m.body_load ] m.n_gt_2 ]) );
    ( "a check operand is defined by a loop below the insertion point",
      (* [s > 0] reads eta [s], which reads the loop *)
      refusal_case
        "a check operand is defined by a loop below the insertion point"
        (fun m -> [ plan [ Ir.NL m.loop ] m.s_gt_0 ]) );
    ( "check chain contains an opaque call",
      refusal_case "check chain contains an opaque call" (fun m ->
          [ plan [ Ir.NI (List.nth m.stores 2) ] m.r_gt_0 ]) );
    ( "a check load unconditionally conflicts with code below the \
       insertion point",
      (* the load of [x] reads what the versioned store wrote; the group
         on [s > 0] goes first and places its check, which the
         dependence graph, first built for the second group, must see *)
      refusal_case ~checks:1
        "a check load unconditionally conflicts with code below the \
         insertion point"
        (fun m ->
          [
            level m
              [
                plan [ Ir.NI (List.nth m.stores 2) ] m.x_gt_0;
                plan [ Ir.NI (List.nth m.stores 4) ] m.s_gt_0;
              ];
          ]) );
    ( "anchor node not found in region",
      (* a second eta over the loop, never placed: the loop's clone and
         the first live-out go in before its phi finds no anchor *)
      refusal_case ~checks:1 "anchor node not found in region" (fun m ->
          let value =
            match (Ir.inst m.f m.eta_s).Ir.kind with
            | Ir.Eta { value; _ } -> value
            | _ -> assert false
          in
          ignore
            (Ir.new_inst m.f ~name:"unplaced"
               ~kind:(Ir.Eta { loop = m.loop; value })
               ~ty:Ir.Tfloat ~pred:Pred.tru);
          [ plan [ Ir.NL m.loop ] m.n_gt_2 ]) );
    ( "a level's second group refuses after the first placed its check",
      refusal_case ~checks:1 "versioned node not in region" (fun m ->
          [
            level m
              [
                plan [ Ir.NI m.body_load ] m.x_gt_0;
                plan [ Ir.NI (List.nth m.stores 4) ] m.s_gt_0;
              ];
          ]) );
  ]

(* An eta versioned in one group while its loop is versioned in another
   group of the same level.  When the eta's group goes first, its clone
   is an eta over the loop too and anchors a live-out block of its own;
   either way the eta gets two blocks after it, the latest first.  This
   pins placement only: when both checks fail, the versioned program
   reads a wrong value for the eta in either order, as the reference
   does. *)
let test_eta_and_loop_in_two_groups () =
  List.iter
    (fun (eta_cond, loop_cond) ->
      let o =
        mat_case (fun m ->
            [
              level m
                [
                  plan [ Ir.NI m.eta_s ] (eta_cond m);
                  plan [ Ir.NL m.loop ] (loop_cond m);
                ];
            ])
      in
      Alcotest.(check bool) "materialized" true o.ok)
    [
      ((fun m -> m.n_gt_3), fun m -> m.n_gt_2);
      ((fun m -> m.n_gt_2), fun m -> m.n_gt_3);
    ]

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
    Alcotest.test_case "materialize: an eta and its loop in two groups"
      `Quick test_eta_and_loop_in_two_groups;
  ]
  @ List.map
      (fun (name, case) ->
        Alcotest.test_case ("materialize refuses: " ^ name) `Quick case)
      refusal_cases
  @ List.map
      (fun config ->
        QCheck_alcotest.to_alcotest (prop_materialize_matches_reference config))
      [ ("default", G.default_config); ("big-region", G.big_region_config 40) ]
