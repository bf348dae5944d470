(* Interpreter semantics tests: vector operations, undef propagation,
   bounds trapping, fuel, the cost model, and loop edge cases. *)

open Fgv_pssa
open Harness

let build_simple body_fn =
  let b = Builder.create ~name:"t" ~params:[ ("p", Ir.Tint) ] in
  let p = Builder.arg b 0 ~ty:Ir.Tint in
  body_fn b p;
  Builder.finish b

let run ?fuel f ~mem = Interp.run ?fuel f ~args:[ Value.VInt 0 ] ~mem

let test_vector_ops () =
  let f =
    build_simple (fun b p ->
        let v = Builder.load b p ~ty:(Ir.Tvec (Ir.Tfloat, 4)) in
        let two = Builder.const_float b 2.0 in
        let s = Builder.splat b two ~lanes:4 ~ty:Ir.Tfloat in
        let m = Builder.binop b Ir.Fmul v s ~ty:(Ir.Tvec (Ir.Tfloat, 4)) in
        let four = Builder.const_int b 4 in
        let addr = Builder.add b p four in
        ignore (Builder.store b ~addr ~value:m))
  in
  let mem = float_mem 8 (fun i -> float_of_int i) in
  let out = run f ~mem in
  List.iteri
    (fun i expected ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "lane %d" i)
        expected
        (float_at out.memory (4 + i)))
    [ 0.0; 2.0; 4.0; 6.0 ];
  Alcotest.(check int) "one vector load" 1 out.counters.vector_loads;
  Alcotest.(check int) "one vector store" 1 out.counters.vector_stores

let test_extract_and_build () =
  let f =
    build_simple (fun b p ->
        let a = Builder.load b p ~ty:Ir.Tfloat in
        let one = Builder.const_float b 1.0 in
        let v = Builder.vecbuild b [ a; one; a; one ] ~ty:Ir.Tfloat in
        let e2 = Builder.extract b v 2 ~ty:Ir.Tfloat in
        let four = Builder.const_int b 4 in
        let addr = Builder.add b p four in
        ignore (Builder.store b ~addr ~value:e2))
  in
  let mem = float_mem 8 (fun i -> float_of_int (i + 3)) in
  let out = run f ~mem in
  Alcotest.(check (float 1e-9)) "lane 2 extracted" 3.0 (float_at out.memory 4)

let test_undef_propagation () =
  let f =
    build_simple (fun b p ->
        let u = Builder.undef b Ir.Tfloat in
        let one = Builder.const_float b 1.0 in
        let s = Builder.fadd b u one in
        (* the undef sum is never stored; the function stores 1.0 *)
        ignore s;
        ignore (Builder.store b ~addr:p ~value:one))
  in
  let out = run f ~mem:(float_mem 4 (fun _ -> 0.0)) in
  Alcotest.(check (float 1e-9)) "stored" 1.0 (float_at out.memory 0)

let test_oob_traps () =
  let f =
    build_simple (fun b p ->
        let big = Builder.const_int b 1000 in
        let addr = Builder.add b p big in
        let one = Builder.const_float b 1.0 in
        ignore (Builder.store b ~addr ~value:one))
  in
  match run f ~mem:(float_mem 4 (fun _ -> 0.0)) with
  | exception Value.Trap _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds trap"

let test_fuel () =
  let f =
    compile
      "kernel spin(float* a) { int x = 1; while (x > 0) { x = x + 1; } a[0] = 1.0; }"
  in
  match Interp.run ~fuel:1000 f ~args:[ Value.VInt 0 ] ~mem:(float_mem 4 (fun _ -> 0.0)) with
  | exception Value.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_zero_trip_etas () =
  (* a skipped loop's etas observe the mu inits *)
  let f =
    compile
      {|
      kernel k(float* a, int n) {
        int s = 7;
        for (int i = 0; i < n; i = i + 1) { s = s + 1; }
        a[0] = (float) s;
      }
    |}
  in
  let out = Interp.run f ~args:(ints [ 0; 0 ]) ~mem:(float_mem 4 (fun _ -> 0.0)) in
  Alcotest.(check (float 1e-9)) "eta = init on zero trip" 7.0 (float_at out.memory 0);
  let out = Interp.run f ~args:(ints [ 0; 5 ]) ~mem:(float_mem 4 (fun _ -> 0.0)) in
  Alcotest.(check (float 1e-9)) "eta after 5 iters" 12.0 (float_at out.memory 0)

let test_counted_induction_exit_value () =
  (* after for (i = 0; i < n; i++), i == n *)
  let f =
    compile
      {|
      kernel k(float* a, int n) {
        int i = 0;
        for (i = 0; i < n; i = i + 1) { a[1] = 0.0; }
        a[0] = (float) i;
      }
    |}
  in
  let out = Interp.run f ~args:(ints [ 0; 9 ]) ~mem:(float_mem 4 (fun _ -> 0.0)) in
  Alcotest.(check (float 1e-9)) "exit value" 9.0 (float_at out.memory 0)

let test_cost_model_prefers_vector () =
  (* same computation scalar vs vector must cost less in vector form *)
  let scalar =
    build_simple (fun b p ->
        for k = 0 to 3 do
          let kc = Builder.const_int b k in
          let addr = Builder.add b p kc in
          let x = Builder.load b addr ~ty:Ir.Tfloat in
          let one = Builder.const_float b 1.0 in
          let y = Builder.fadd b x one in
          let eight = Builder.const_int b (8 + k) in
          let daddr = Builder.add b p eight in
          ignore (Builder.store b ~addr:daddr ~value:y)
        done)
  in
  let vector =
    build_simple (fun b p ->
        let v = Builder.load b p ~ty:(Ir.Tvec (Ir.Tfloat, 4)) in
        let one = Builder.const_float b 1.0 in
        let s = Builder.splat b one ~lanes:4 ~ty:Ir.Tfloat in
        let y = Builder.binop b Ir.Fadd v s ~ty:(Ir.Tvec (Ir.Tfloat, 4)) in
        let eight = Builder.const_int b 8 in
        let daddr = Builder.add b p eight in
        ignore (Builder.store b ~addr:daddr ~value:y))
  in
  let mem () = float_mem 16 (fun i -> float_of_int i) in
  let a = run scalar ~mem:(mem ()) in
  let b = run vector ~mem:(mem ()) in
  Alcotest.(check (option string)) "same results" None
    Interp.(observation_diff (observe a) (observe b));
  Alcotest.(check bool) "vector is cheaper" true
    (Interp.cost b.counters < Interp.cost a.counters)

let test_call_trace_only_impure () =
  let f =
    compile
      {|
      kernel k(float* a) {
        a[0] = sqrt(4.0);
        cold_func();
      }
    |}
  in
  let out = Interp.run f ~args:(ints [ 2 ]) ~mem:(float_mem 4 (fun _ -> 0.0)) in
  Alcotest.(check int) "only the impure call is observable" 1
    (List.length out.call_trace);
  Alcotest.(check (float 1e-9)) "sqrt applied" 2.0 (float_at out.memory 2)

let suite =
  [
    Alcotest.test_case "vector ops" `Quick test_vector_ops;
    Alcotest.test_case "extract/build" `Quick test_extract_and_build;
    Alcotest.test_case "undef propagation" `Quick test_undef_propagation;
    Alcotest.test_case "out-of-bounds traps" `Quick test_oob_traps;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel;
    Alcotest.test_case "zero-trip etas" `Quick test_zero_trip_etas;
    Alcotest.test_case "induction exit value" `Quick test_counted_induction_exit_value;
    Alcotest.test_case "cost model prefers vector" `Quick test_cost_model_prefers_vector;
    Alcotest.test_case "call trace is impure-only" `Quick test_call_trace_only_impure;
  ]
