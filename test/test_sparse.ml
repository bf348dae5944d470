(* Tests for the compile-time work of PR "compiler performance":

   - the sparse dependence-graph builder must produce a graph
     byte-identical to the naive all-pairs oracle — same edge ids,
     sources, destinations, conditions, in the same order — on the
     golden kernels and across a fuzz sweep;
   - predicate hash-consing: physical equality of equal predicates,
     generation behavior of [Pred.reset], and the hit/miss counters;
   - the whole pipeline (hash-cons tables, sparse build, telemetry,
     remarks) stays byte-deterministic across [--jobs] counts. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Pool = Fgv_support.Pool
module W = Fgv_bench.Workload
module G = Fgv_fuzz.Generator

(* ------------------------------------- sparse/naive graph equivalence *)

let find_kernel name pool = List.find (fun k -> k.W.k_name = name) pool

let golden_kernels () =
  [
    find_kernel "s131" Fgv_bench.Tsvc.kernels;
    find_kernel "floyd-warshall" Fgv_bench.Polybench.kernels;
    find_kernel "lbm_r" Fgv_bench.Specfp.kernels;
  ]

let edge_equal (a : Depgraph.edge) (b : Depgraph.edge) =
  a.Depgraph.e_id = b.Depgraph.e_id
  && a.Depgraph.e_src = b.Depgraph.e_src
  && a.Depgraph.e_dst = b.Depgraph.e_dst
  &&
  match a.Depgraph.e_cond, b.Depgraph.e_cond with
  | None, None -> true
  | Some xs, Some ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun x y -> Depcond.compare_atom x y = 0) xs ys
  | _ -> false

let check_equivalent ~what (f : Ir.func) =
  List.iter
    (fun region ->
      let scev = Scev.create f in
      let sparse = Depgraph.build f scev region in
      let naive = Harness.Depgraph_reference.build_naive f scev region in
      let rname =
        match region with
        | Ir.Rtop -> "top"
        | Ir.Rloop l -> Printf.sprintf "L%d" l
      in
      if Array.length sparse.Depgraph.edges <> Array.length naive.Depgraph.edges
      then
        Alcotest.failf "%s %s: sparse has %d edges, naive %d" what rname
          (Array.length sparse.Depgraph.edges)
          (Array.length naive.Depgraph.edges);
      Array.iteri
        (fun k e ->
          if not (edge_equal e naive.Depgraph.edges.(k)) then
            Alcotest.failf "%s %s: edge %d differs between sparse and naive"
              what rname k)
        sparse.Depgraph.edges)
    (Ir.regions f)

let test_sparse_equals_naive_golden () =
  List.iter
    (fun k ->
      let f = Harness.compile k.W.k_source in
      check_equivalent ~what:k.W.k_name f)
    (golden_kernels ())

let test_sparse_equals_naive_fuzz () =
  (* a 200-seed sweep at the generator's default shape, plus a handful
     of deeper-nesting programs, all compared region by region *)
  let specs =
    List.init 200 (fun seed -> (G.default_config, seed))
    @ List.init 8 (fun seed ->
          (G.big_region_config 30, seed))
  in
  List.iter
    (fun (config, seed) ->
      let src = G.render (G.generate ~config ~seed ()) in
      let f = Harness.compile src in
      check_equivalent ~what:(Printf.sprintf "fuzz seed %d" seed) f)
    specs

let test_sparse_prunes () =
  (* the sparse builder must actually skip work on a real kernel: fewer
     Fig. 6 evaluations than the all-pairs oracle *)
  let k = find_kernel "floyd-warshall" Fgv_bench.Polybench.kernels in
  let f = Harness.compile k.W.k_source in
  let scev = Scev.create f in
  let count build =
    let (), delta =
      Tm.capture (fun () ->
          List.iter (fun r -> ignore (build f scev r)) (Ir.regions f))
    in
    match List.assoc_opt "depcond.compute_calls" delta with
    | Some n -> n
    | None -> 0
  in
  let sparse = count Depgraph.build in
  let naive = count Harness.Depgraph_reference.build_naive in
  Alcotest.(check bool)
    (Printf.sprintf "sparse computes fewer conditions (%d < %d)" sparse naive)
    true (sparse < naive)

(* ------------------------------- corridor cut = full-network cut *)

(* [Cut.find] solves max-flow over the S->T corridor only; the reference
   (Harness.Cut_reference) is the earlier [Cut.find] over every node
   discovered from S, with the record-based Dinic.  On the region graphs
   of generated programs, with random S, T and exclusions, the two must
   return the same cut and source nodes and bump the same [cut.*]
   counters. *)
let cut_ids (r : Fgv_versioning.Cut.result option) =
  Option.map
    (fun r ->
      ( List.map (fun e -> e.Depgraph.e_id) r.Fgv_versioning.Cut.cut_edges,
        r.Fgv_versioning.Cut.source_nodes ))
    r

let prop_cut_matches_reference =
  QCheck2.Test.make ~name:"corridor Cut.find equals the full-network reference"
    ~count:60
    QCheck2.Gen.(triple (int_bound 100_000) (int_bound 3) (int_bound 1_000_000))
    (fun (seed, shape, pick) ->
      let config =
        if shape = 0 then G.big_region_config 30 else G.default_config
      in
      let f = Harness.compile (G.render (G.generate ~config ~seed ())) in
      let scev = Scev.create f in
      let rng = Random.State.make [| pick |] in
      let subset n p =
        List.filter (fun _ -> Random.State.float rng 1.0 < p) (List.init n Fun.id)
      in
      List.for_all
        (fun region ->
          let g = Depgraph.build f scev region in
          let n = Array.length g.Depgraph.nodes in
          n = 0
          || List.for_all
               (fun _ ->
                 let s = Random.State.int rng n :: subset n 0.1 in
                 let t =
                   if Random.State.bool rng then s
                   else Random.State.int rng n :: subset n 0.1
                 in
                 let cut =
                   subset (Array.length g.Depgraph.edges)
                     (if Random.State.bool rng then 0.1 else 0.5)
                 in
                 let excluded id = List.mem id cut in
                 let r, c =
                   Tm.capture (fun () ->
                       Fgv_versioning.Cut.find g ~excluded ~s ~t)
                 in
                 let r', c' =
                   Tm.capture (fun () ->
                       Harness.Cut_reference.find g ~excluded ~s ~t)
                 in
                 cut_ids r = cut_ids r' && c = c')
               (List.init 4 Fun.id))
        (Ir.regions f))

(* --------------------------------------------------- hash-cons basics *)

let test_hashcons_physical_equality () =
  Pred.reset ();
  let p1 = Pred.and_ (Pred.lit 1) (Pred.lit ~positive:false 2) in
  let p2 = Pred.and_ (Pred.lit 1) (Pred.lit ~positive:false 2) in
  Alcotest.(check bool) "same structure, same object" true (p1 == p2);
  Alcotest.(check int) "same intern id" (Pred.id p1) (Pred.id p2);
  let q = Pred.or_list [ p1; Pred.lit 3 ] in
  Alcotest.(check bool)
    "rebuilt disjunction interned" true
    (q == Pred.or_list [ p2; Pred.lit 3 ])

let test_hashcons_reset_generations () =
  Pred.reset ();
  let p1 = Pred.and_ (Pred.lit 1) (Pred.lit 2) in
  Pred.reset ();
  let p2 = Pred.and_ (Pred.lit 1) (Pred.lit 2) in
  (* a fresh generation re-interns: new id, but structural equality and
     ordering still treat the old object correctly *)
  Alcotest.(check bool) "ids differ across generations" true
    (Pred.id p1 <> Pred.id p2);
  Alcotest.(check bool) "still structurally equal" true (Pred.equal p1 p2);
  Alcotest.(check int) "compare_t agrees" 0 (Pred.compare_t p1 p2)

let test_hashcons_counters () =
  Pred.reset ();
  let (), delta =
    Tm.capture (fun () ->
        let a = Pred.and_ (Pred.lit 4) (Pred.lit 5) in
        ignore (Pred.and_ (Pred.lit 4) (Pred.lit 5));
        ignore a)
  in
  let get name = Option.value ~default:0 (List.assoc_opt name delta) in
  Alcotest.(check bool) "misses recorded" true (get "pred.hashcons_misses" > 0);
  Alcotest.(check bool) "hits recorded" true (get "pred.hashcons_hits" > 0)

(* ------------------------------------------------- jobs determinism *)

let determinism_sources () =
  List.map
    (fun k -> k.W.k_source)
    (golden_kernels ()
    @ [
        find_kernel "s1113" Fgv_bench.Tsvc.kernels;
        find_kernel "s2244" Fgv_bench.Tsvc.kernels;
      ])
  @ List.init 6 (fun seed -> G.render (G.generate ~seed ()))

let pipeline_fingerprint jobs =
  Tm.reset ();
  Tr.reset ();
  Tr.set_remarks true;
  let srcs = determinism_sources () in
  ignore
    (Pool.map ~jobs
       (fun src ->
         let f = Harness.compile src in
         Fgv_passes.Pipelines.run "sv+v" f)
       srcs);
  let remarks = Tr.remarks_jsonl () in
  let counters =
    String.concat "\n"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (List.filter
            (fun (k, _) ->
              (* the counters this PR adds, plus everything else the
                 pipeline bumps — all must merge deterministically *)
              not (String.length k = 0))
            (Tm.counters ())))
  in
  Tr.set_remarks false;
  Tr.reset ();
  Tm.reset ();
  (remarks, counters)

let test_jobs_determinism () =
  let r1, c1 = pipeline_fingerprint 1 in
  let r4, c4 = pipeline_fingerprint 4 in
  Alcotest.(check string) "remark stream byte-identical at jobs 1 vs 4" r1 r4;
  Alcotest.(check string) "telemetry byte-identical at jobs 1 vs 4" c1 c4

let suite =
  [
    Alcotest.test_case "sparse = naive on golden kernels" `Quick
      test_sparse_equals_naive_golden;
    Alcotest.test_case "sparse = naive on fuzz sweep" `Slow
      test_sparse_equals_naive_fuzz;
    Alcotest.test_case "sparse build prunes pairs" `Quick test_sparse_prunes;
    Alcotest.test_case "hash-consing: physical equality" `Quick
      test_hashcons_physical_equality;
    Alcotest.test_case "hash-consing: reset generations" `Quick
      test_hashcons_reset_generations;
    Alcotest.test_case "hash-consing: hit/miss counters" `Quick
      test_hashcons_counters;
    Alcotest.test_case "pipeline deterministic at jobs 1 vs 4" `Quick
      test_jobs_determinism;
    QCheck_alcotest.to_alcotest prop_cut_matches_reference;
  ]
