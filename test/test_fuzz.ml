(* Unit tests for the differential-fuzzing subsystem itself: pinned-seed
   replay determinism, the delta-debugging shrinker, generator output
   distribution, render/parse round-tripping, and the typed
   undef-address trap the oracle's agreement relation depends on. *)

open Fgv_pssa
open Fgv_frontend
module F = Fgv_fuzz
module G = F.Generator
module O = F.Oracle
module Tm = Fgv_support.Telemetry
module W = Fgv_bench.Workload

(* ------------------------------------------------- deterministic replay *)

(* The same seed must produce the same program, and these pinned seeds
   must stay mismatch-free across every pipeline: they are the fixed
   regression anchor for the whole oracle stack.  (The CI smoke job
   covers a wider sweep; these three replay instantly.) *)
let pinned_seeds = [ 42; 101; 203 ]

let test_replay () =
  List.iter
    (fun seed ->
      let cfg = G.vary G.default_config ~seed in
      let a = G.render (G.generate ~config:cfg ~seed ()) in
      let b = G.render (G.generate ~config:cfg ~seed ()) in
      Alcotest.(check string) (Printf.sprintf "seed %d replays" seed) a b)
    pinned_seeds

let test_pinned_seeds_clean () =
  List.iter
    (fun seed ->
      let cfg = G.vary G.default_config ~seed in
      let fd = G.generate ~config:cfg ~seed () in
      match O.check ~config:cfg fd with
      | None -> ()
      | Some m ->
        Alcotest.failf "pinned seed %d mismatches: %s" seed
          (O.mismatch_to_string m))
    pinned_seeds

(* ------------------------------------------------------------- shrinker *)

(* A deliberately broken "transform": delete the last top-level store of
   the lowered function.  The oracle catches it, and the shrinker must
   reduce the witness to (almost) nothing. *)
let break_last_store (f : Ir.func) =
  let rec drop_last acc = function
    | [] -> List.rev acc
    | [ (Ir.I v) ] when
        (match (Ir.inst f v).Ir.kind with Ir.Store _ -> true | _ -> false) ->
      List.rev acc
    | it :: rest -> drop_last (it :: acc) rest
  in
  f.Ir.fbody <- drop_last [] f.Ir.fbody

let shrink_config = G.default_config

let broken_still_failing fd =
  match Lower_ast.lower_fdecl fd with
  | exception Lower_ast.Error _ -> false
  | reference ->
    let subject = Lower_ast.lower_fdecl fd in
    break_last_store subject;
    O.compare_funcs ~config:shrink_config
      ~layouts:(G.layouts_for shrink_config) ~label:"broken" reference subject
    <> None

(* A known-bad program for the broken transform: the final top-level
   store is observable, so the original fails, and everything else is
   noise the shrinker must strip away. *)
let known_bad : Ast.fdecl =
  {
    Ast.fdname = "fuzz";
    fdparams = G.params shrink_config;
    fdbody =
      [
        Ast.Sdecl (Ast.Tfloat, "x0", Ast.Ebin ("+", Ast.Eindex ("p1", Ast.Eint 2), Ast.Efloat 1.5));
        Ast.Sfor
          ( Ast.Sdecl (Ast.Tint, "i0", Ast.Eint 0),
            Ast.Ebin ("<", Ast.Evar "i0", Ast.Eint 4),
            Ast.Sassign ("i0", Ast.Ebin ("+", Ast.Evar "i0", Ast.Eint 1)),
            [
              Ast.Sstore
                ( "p0",
                  Ast.Evar "i0",
                  Ast.Ebin ("*", Ast.Eindex ("p1", Ast.Evar "i0"), Ast.Efloat 0.5) );
            ] );
        Ast.Sif
          ( Ast.Ebin ("<", Ast.Eindex ("p0", Ast.Eint 0), Ast.Efloat 1.0),
            [ Ast.Sstore ("p1", Ast.Eint 3, Ast.Evar "x0") ],
            [] );
        Ast.Sstore ("p2", Ast.Eint 5, Ast.Efloat 2.25);
      ];
  }

let test_shrinker_minimizes () =
  Alcotest.(check bool)
    "known-bad program fails the broken transform" true
    (broken_still_failing known_bad);
  let reduced, steps =
    F.Shrink.shrink ~still_failing:broken_still_failing known_bad
  in
  Alcotest.(check bool) "shrink made progress" true (steps > 0);
  Alcotest.(check bool)
    "reduced program still fails" true (broken_still_failing reduced);
  let n = F.Shrink.stmt_count_list reduced.Ast.fdbody in
  if n > 5 then
    Alcotest.failf "expected <= 5 statements after shrinking, got %d:\n%s" n
      (G.render reduced)

(* --------------------------------------------------------- distribution *)

let rec has_nested_loop_stmt depth = function
  | Ast.Sfor (_, _, _, body) | Ast.Swhile (_, body) ->
    depth >= 1 || List.exists (has_nested_loop_stmt (depth + 1)) body
  | Ast.Sif (_, t, e) ->
    List.exists (has_nested_loop_stmt depth) t
    || List.exists (has_nested_loop_stmt depth) e
  | _ -> false

let has_nested_loop (fd : Ast.fdecl) =
  List.exists (has_nested_loop_stmt 0) fd.Ast.fdbody

let test_generator_distribution () =
  let config = { G.default_config with G.size = 20 } in
  let total = 100 in
  let nested = ref 0 in
  for seed = 0 to total - 1 do
    if has_nested_loop (G.generate ~config ~seed ()) then incr nested
  done;
  if !nested * 10 < total * 3 then
    Alcotest.failf
      "expected >= 30%% of size-20 programs to contain a nested loop, got %d/%d"
      !nested total

(* The store-heavy and distribution-shaped generator arms must actually
   reach the DSE and distribution clients — not just parse.  Lenient
   floors: a generator regression that starves the clients trips this
   long before the oracle stops covering them. *)
let test_generator_feeds_clients () =
  let total = 100 in
  let forwarded = ref 0 and killed = ref 0 in
  let split = ref 0 and pieces = ref 0 in
  for seed = 0 to total - 1 do
    let cfg = G.vary G.default_config ~seed in
    let src = G.render (G.generate ~config:cfg ~seed ()) in
    let f = Lower_ast.compile_no_restrict src in
    let (), work =
      Tm.capture (fun () -> Fgv_passes.Pipelines.dse_pipeline f)
    in
    forwarded := !forwarded + W.count work "pass.dse.forwarded";
    killed := !killed + W.count work "pass.dse.killed";
    let g = Lower_ast.compile_no_restrict src in
    let (), work =
      Tm.capture (fun () -> Fgv_passes.Pipelines.distribute_pipeline g)
    in
    split := !split + W.count work "pass.distribute.split";
    pieces := !pieces + W.count work "pass.distribute.pieces"
  done;
  let expect name floor got =
    if got < floor then
      Alcotest.failf "expected >= %d %s across %d seeds, got %d" floor name
        total got
  in
  expect "forwarded loads" 20 !forwarded;
  expect "killed stores" 20 !killed;
  expect "distributed loops" 15 !split;
  expect "distribution pieces" 30 !pieces

(* ----------------------------------------------------------- round-trip *)

(* [G.render] must print *parseable* mini-C that lowers to the same
   behaviour as lowering the AST directly — failure reports depend on
   it. *)
let test_render_roundtrip () =
  for seed = 0 to 19 do
    let cfg = G.vary G.default_config ~seed in
    let fd = G.generate ~config:cfg ~seed () in
    let direct = Lower_ast.lower_fdecl fd in
    let reparsed =
      try Lower_ast.compile (G.render fd)
      with Lower_ast.Error msg ->
        Alcotest.failf "seed %d: rendered program does not parse: %s\n%s" seed
          msg (G.render fd)
    in
    List.iter
      (fun layout ->
        let a = O.run_pssa cfg direct layout in
        let b = O.run_pssa cfg reparsed layout in
        match Interp.runs_agree a b with
        | None -> ()
        | Some detail ->
          Alcotest.failf "seed %d: render round-trip diverges: %s" seed detail)
      (G.layouts_for cfg)
  done

(* ------------------------------------------------------ typed undef trap *)

(* Loads/stores at undef addresses raise the typed
   {!Value.Undef_access}, not a bare trap: the oracle relies on the
   distinction to classify "both sides fault identically" as
   agreement. *)
let test_undef_access_typed () =
  let mem () = Array.make 8 (Value.VFloat 0.0) in
  (match Interp.run (Harness.build_undef_access ~store:false) ~args:[ Value.VInt 0 ] ~mem:(mem ()) with
  | exception Value.Undef_access "load" -> ()
  | exception e -> Alcotest.failf "expected Undef_access load, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Undef_access load, but the run finished");
  (match Interp.run (Harness.build_undef_access ~store:true) ~args:[ Value.VInt 0 ] ~mem:(mem ()) with
  | exception Value.Undef_access "store" -> ()
  | exception e -> Alcotest.failf "expected Undef_access store, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Undef_access store, but the run finished");
  (* identical faulting counts as agreement; faulting on one side only
     does not *)
  Alcotest.(check bool)
    "same undef trap agrees" true
    (Interp.runs_agree (Interp.Undef_trap "load") (Interp.Undef_trap "load")
    = None);
  Alcotest.(check bool)
    "one-sided undef trap mismatches" true
    (Interp.runs_agree
       (Interp.Finished { o_mem = [||]; o_trace = [] })
       (Interp.Undef_trap "load")
    <> None)

let suite =
  [
    Alcotest.test_case "pinned seeds replay deterministically" `Quick test_replay;
    Alcotest.test_case "pinned seeds pass every pipeline" `Quick
      test_pinned_seeds_clean;
    Alcotest.test_case "shrinker minimizes a known-bad program" `Quick
      test_shrinker_minimizes;
    Alcotest.test_case "generator emits nested loops" `Quick
      test_generator_distribution;
    Alcotest.test_case "generator feeds the DSE/distribution clients" `Quick
      test_generator_feeds_clients;
    Alcotest.test_case "render/parse round-trip" `Quick test_render_roundtrip;
    Alcotest.test_case "undef-address traps are typed" `Quick
      test_undef_access_typed;
  ]
