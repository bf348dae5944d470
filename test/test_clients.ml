(* Tests for the wish-spec versioning clients (DSE, loop distribution):

   - golden decision sequences: the exact wish grants/denials and
     rewrite remarks each client emits on pinned kernels, so a change in
     plan inference or client enumeration shows up as a diff;
   - negative tests: neither client fires when the wished-away
     dependence is not versionable (unconditional overlap, flow
     dependence), and versioned-only wishes are denied with versioning
     disabled;
   - the clients' remark + telemetry streams are byte-identical across
     --jobs counts, same discipline as test_sparse. *)

open Fgv_pssa
module P = Fgv_passes
module W = Fgv_bench.Workload
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module Pool = Fgv_support.Pool
module G = Fgv_fuzz.Generator

let find_kernel name pool = List.find (fun k -> k.W.k_name = name) pool
let tsvc name = (find_kernel name Fgv_bench.Tsvc.kernels).W.k_source

(* The decision trail: every wish outcome and client rewrite, as stable
   strings (independent of value naming, so the goldens pin decisions,
   not printer details). *)
let decisions remarks =
  List.filter_map
    (fun (_, r) ->
      match r with
      | Tr.Wish_granted { client; conds; static; _ } ->
        Some
          (Printf.sprintf "%s granted %s conds=%d" client
             (if static then "static" else "versioned")
             conds)
      | Tr.Wish_denied { client; _ } -> Some (client ^ " denied")
      | Tr.Store_eliminated { forwarded; killed } ->
        Some (Printf.sprintf "store-eliminated forwarded=%d killed=%d" forwarded killed)
      | Tr.Loop_distributed { pieces; conds } ->
        Some (Printf.sprintf "loop-distributed pieces=%d conds=%d" pieces conds)
      | _ -> None)
    remarks

(* Run a pipeline with remarks collected; return its remarks and a
   reader of its counter delta (the passes' work). *)
let run_pipeline pipeline f =
  let ((), remarks), work =
    Tm.capture (fun () -> Obs.collect_remarks (fun () -> pipeline f))
  in
  (W.count work, remarks)

let count_stores (f : Ir.func) =
  let n = ref 0 in
  Ir.iter_insts f (fun i ->
      match i.Ir.kind with Ir.Store _ -> incr n | _ -> ());
  !n

(* ------------------------------------------------- golden decision trails *)

let test_dse_golden_s222 () =
  (* without restrict, the e-recurrence may alias a: forwarding the
     second a[i] load and killing the first a[i] store both need the
     versioned separation from the e accesses *)
  let f = Fgv_frontend.Lower_ast.compile_no_restrict (tsvc "s222") in
  let work, remarks = run_pipeline P.Pipelines.dse_pipeline f in
  Alcotest.(check int) "forwarded" 1 (work "pass.dse.forwarded");
  Alcotest.(check int) "killed" 1 (work "pass.dse.killed");
  Alcotest.(check (list string))
    "decision trail"
    [
      "dse-forward granted versioned conds=1";
      "dse-kill granted versioned conds=3";
      "store-eliminated forwarded=1 killed=1";
    ]
    (decisions remarks)

let test_distribute_golden_s2251 () =
  let f = Fgv_frontend.Lower_ast.compile_no_restrict (tsvc "s2251") in
  let work, remarks = run_pipeline P.Pipelines.distribute_pipeline f in
  Alcotest.(check int) "loops split" 1 (work "pass.distribute.split");
  Alcotest.(check int) "pieces" 2 (work "pass.distribute.pieces");
  let dist =
    List.filter
      (fun d ->
        String.length d >= 10
        && (String.sub d 0 10 = "distribute" || String.sub d 0 9 = "loop-dist"))
      (decisions remarks)
  in
  Alcotest.(check (list string))
    "decision trail"
    [ "distribute granted versioned conds=6"; "loop-distributed pieces=2 conds=6" ]
    dist

(* with restrict the arrays are statically disjoint: both clients fire
   without any run-time condition *)
let test_dse_static_restrict () =
  let f = Fgv_frontend.Lower_ast.compile (tsvc "s222") in
  let work, remarks =
    run_pipeline (P.Pipelines.dse_pipeline ~versioning:false) f
  in
  Alcotest.(check int) "forwarded" 1 (work "pass.dse.forwarded");
  Alcotest.(check int) "killed" 1 (work "pass.dse.killed");
  Alcotest.(check (list string))
    "decision trail"
    [
      "dse-forward granted static conds=0";
      "dse-kill granted static conds=0";
      "store-eliminated forwarded=1 killed=1";
    ]
    (decisions remarks)

(* ---------------------------------------------------------- negatives *)

let test_kill_denied_unversionable () =
  (* the read-only opaque call between the store pair may read any cell
     — it has no SCEV range, so its dependence on the first store is
     unconditional: no run-time check can version it away.  (A guarded
     store or an affine load would NOT do here: the guard predicate or
     an interval-disjointness test makes those versionable, and the
     client rightly takes the deal.) *)
  let src =
    {| kernel neg(float* a, float* b, int n) {
         a[0] = 1.0;
         b[1] = opaque_read(0);
         a[0] = 3.0;
       } |}
  in
  let f = Fgv_frontend.Lower_ast.compile_no_restrict src in
  let before = count_stores f in
  let work, remarks = run_pipeline P.Pipelines.dse_pipeline f in
  Alcotest.(check int) "nothing forwarded" 0 (work "pass.dse.forwarded");
  Alcotest.(check int) "nothing killed" 0 (work "pass.dse.killed");
  Alcotest.(check int) "stores untouched" before (count_stores f);
  Alcotest.(check (list string))
    "the kill wish is denied" [ "dse-kill denied" ] (decisions remarks)

let test_distribute_no_candidate_on_flow () =
  (* s221: the second statement consumes a[i], which the first statement
     writes — a genuine flow dependence, so the statement groups fuse
     and there is nothing to distribute (not even a wish to deny) *)
  let f = Fgv_frontend.Lower_ast.compile_no_restrict (tsvc "s221") in
  let work, remarks = run_pipeline P.Pipelines.distribute_pipeline f in
  Alcotest.(check int) "no split" 0 (work "pass.distribute.split");
  Alcotest.(check (list string))
    "no distribute decisions" []
    (List.filter
       (fun d -> String.length d >= 4 && String.sub d 0 4 <> "dse-")
       (decisions remarks))

let test_distribute_denied_without_versioning () =
  (* the s2251 split needs run-time checks; with versioning off the
     wish must be denied and the loop left fused *)
  let f = Fgv_frontend.Lower_ast.compile_no_restrict (tsvc "s2251") in
  let work, remarks =
    run_pipeline (P.Pipelines.distribute_pipeline ~versioning:false) f
  in
  Alcotest.(check int) "no split" 0 (work "pass.distribute.split");
  Alcotest.(check (list string))
    "denied" [ "distribute denied" ]
    (List.filter (fun d -> d = "distribute denied") (decisions remarks))

(* ------------------------------------------------- jobs determinism *)

let determinism_sources () =
  [ tsvc "s222"; tsvc "s2251"; tsvc "s221"; tsvc "s124" ]
  @ List.init 4 (fun seed -> G.render (G.generate ~seed:(seed + 60) ()))

let clients_fingerprint jobs =
  Tm.reset ();
  Tr.reset ();
  Tr.set_remarks true;
  ignore
    (Pool.map ~jobs
       (fun src ->
         let f = Fgv_frontend.Lower_ast.compile_no_restrict src in
         ignore (P.Pipelines.dse_pipeline f);
         let g = Fgv_frontend.Lower_ast.compile_no_restrict src in
         ignore (P.Pipelines.distribute_pipeline g);
         let h = Fgv_frontend.Lower_ast.compile_no_restrict src in
         ignore (P.Pipelines.combined h))
       (determinism_sources ()));
  let remarks = Tr.remarks_jsonl () in
  let counters =
    String.concat "\n"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Tm.counters ()))
  in
  Tr.set_remarks false;
  Tr.reset ();
  Tm.reset ();
  (remarks, counters)

let test_jobs_determinism () =
  let r1, c1 = clients_fingerprint 1 in
  let r4, c4 = clients_fingerprint 4 in
  Alcotest.(check string) "remark stream byte-identical at jobs 1 vs 4" r1 r4;
  Alcotest.(check string) "telemetry byte-identical at jobs 1 vs 4" c1 c4

let suite =
  [
    Alcotest.test_case "DSE decision golden: s222 (no restrict)" `Quick
      test_dse_golden_s222;
    Alcotest.test_case "distribution decision golden: s2251" `Quick
      test_distribute_golden_s2251;
    Alcotest.test_case "DSE static grants under restrict" `Quick
      test_dse_static_restrict;
    Alcotest.test_case "negative: unversionable kill leaves stores" `Quick
      test_kill_denied_unversionable;
    Alcotest.test_case "negative: flow dependence blocks distribution" `Quick
      test_distribute_no_candidate_on_flow;
    Alcotest.test_case "negative: no versioning, wish denied" `Quick
      test_distribute_denied_without_versioning;
    Alcotest.test_case "clients deterministic at jobs 1 vs 4" `Quick
      test_jobs_determinism;
  ]
