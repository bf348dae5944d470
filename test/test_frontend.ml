(* End-to-end tests: compile mini-C kernels to PSSA, interpret, and check
   results against straightforward OCaml reference computations. *)

open Fgv_pssa
open Harness

let check_float = Alcotest.(check (float 1e-9))

let sum_src =
  {|
  kernel sum(float* a, float* out, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
    out[0] = s;
  }
|}

let test_sum () =
  let f = compile sum_src in
  let n = 17 in
  let mem = float_mem 32 (fun i -> float_of_int i *. 0.5) in
  (* a at 0..16, out at 20 *)
  let out = run_pssa f ~args:(ints [ 0; 20; n ]) ~mem in
  let expected = List.init n (fun i -> float_of_int i *. 0.5) |> List.fold_left ( +. ) 0.0 in
  check_float "sum" expected (float_at out.memory 20)

let test_sum_zero_trip () =
  let f = compile sum_src in
  let mem = float_mem 8 (fun _ -> 1.0) in
  let out = run_pssa f ~args:(ints [ 0; 4; 0 ]) ~mem in
  check_float "zero-trip sum" 0.0 (float_at out.memory 4)

let cond_src =
  {|
  kernel relu(float* a, float* b, int n) {
    for (int i = 0; i < n; i = i + 1) {
      float x = a[i];
      if (x > 0.0) { b[i] = x; } else { b[i] = 0.0 - x; }
    }
  }
|}

let test_conditional () =
  let f = compile cond_src in
  let n = 10 in
  let mem = float_mem 24 (fun i -> if i mod 2 = 0 then float_of_int i else -.float_of_int i) in
  let out = run_pssa f ~args:(ints [ 0; 12; n ]) ~mem in
  for i = 0 to n - 1 do
    let input = if i mod 2 = 0 then float_of_int i else -.float_of_int i in
    check_float (Printf.sprintf "abs[%d]" i) (Float.abs input) (float_at out.memory (12 + i))
  done

let nested_src =
  {|
  kernel rowsum(float* a, float* out, int n, int m) {
    for (int i = 0; i < n; i = i + 1) {
      float s = 0.0;
      for (int j = 0; j < m; j = j + 1) { s = s + a[i * m + j]; }
      out[i] = s;
    }
  }
|}

let test_nested_loops () =
  let f = compile nested_src in
  let n = 4 and m = 5 in
  let mem = float_mem 32 (fun i -> float_of_int (i * i mod 7)) in
  let out = run_pssa f ~args:(ints [ 0; 24; n; m ]) ~mem in
  for i = 0 to n - 1 do
    let expected = ref 0.0 in
    for j = 0 to m - 1 do
      let cell = (i * m) + j in
      expected := !expected +. float_of_int (cell * cell mod 7)
    done;
    check_float (Printf.sprintf "row[%d]" i) !expected (float_at out.memory (24 + i))
  done

let while_src =
  {|
  kernel collatz_steps(float* out, int start) {
    int x = start;
    int steps = 0;
    while (x != 1) {
      if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
      steps = steps + 1;
    }
    out[0] = (float) steps;
  }
|}

let test_while () =
  let f = compile while_src in
  let mem = float_mem 2 (fun _ -> 0.0) in
  let out = run_pssa f ~args:(ints [ 0; 6 ]) ~mem in
  (* 6 -> 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1 : 8 steps *)
  check_float "collatz(6)" 8.0 (float_at out.memory 0)

let fig1_src =
  {|
  kernel fig1(float* X, float* Y) {
    Y[0] = 0.0;
    if (X[0] != 0.0) { cold_func(); }
    Y[1] = 0.0;
  }
|}

(* The paper's running example: pointer arguments really can alias. *)
let test_running_example_no_alias () =
  let f = compile fig1_src in
  let mem = float_mem 8 (fun _ -> 1.0) in
  (* X at 4, Y at 1: no alias; X[0] = 1.0 so cold_func runs (writes 42 to cell 0) *)
  let out = run_pssa f ~args:(ints [ 4; 1 ]) ~mem in
  check_float "cold_func clobbered cell 0" 42.0 (float_at out.memory 0);
  check_float "Y[0]" 0.0 (float_at out.memory 1);
  check_float "Y[1]" 0.0 (float_at out.memory 2);
  Alcotest.(check int) "one call" 1 (List.length out.call_trace)

let test_running_example_alias () =
  let f = compile fig1_src in
  let mem = float_mem 8 (fun _ -> 1.0) in
  (* X = Y: the store Y[0] = 0 zeroes X[0], so cold_func must NOT run *)
  let out = run_pssa f ~args:(ints [ 3; 3 ]) ~mem in
  Alcotest.(check int) "no call" 0 (List.length out.call_trace)

let ternary_src =
  {|
  kernel clampmax(float* a, float* b, int n, float hi) {
    for (int i = 0; i < n; i = i + 1) {
      b[i] = a[i] > hi ? hi : a[i];
    }
  }
|}

let test_ternary () =
  let f = compile ternary_src in
  let n = 6 in
  let mem = float_mem 16 (fun i -> float_of_int i) in
  let out =
    run_pssa f ~args:[ VInt 0; VInt 8; VInt n; VFloat 3.5 ] ~mem
  in
  for i = 0 to n - 1 do
    check_float
      (Printf.sprintf "clamp[%d]" i)
      (Float.min (float_of_int i) 3.5)
      (float_at out.memory (8 + i))
  done

module Compile = Fgv_frontend.Compile

let test_parse_errors () =
  let bad = [ "kernel f( { }"; "kernel f() { x = 1; }"; "kernel f() { int x = ; }" ] in
  List.iter
    (fun src ->
      match Compile.source ignore src with
      | Error (Compile.Lex _ | Compile.Parse _ | Compile.Lower _) -> ()
      | _ -> Alcotest.failf "expected error for %s" src)
    bad

(* Each stage's refusal is its own constructor, rendered in the
   compile service's wording: the bad sources of CI's frontend-error
   step, a pipeline that raises, and one that breaks the IR (whose
   message goes on with the verifier's own text). *)
let test_compile_outcomes () =
  let stage = function
    | Compile.Lex _ -> "Lex"
    | Compile.Parse _ -> "Parse"
    | Compile.Lower _ -> "Lower"
    | Compile.Crashed _ -> "Crashed"
    | Compile.Ill_formed _ -> "Ill_formed"
  in
  (* delete the first instruction that another one uses *)
  let break_ir (f : Ir.func) =
    let used = ref None in
    Ir.iter_insts f (fun i ->
        List.iter
          (fun v -> if !used = None then used := Some v)
          (Ir.all_operands i));
    Ir.remove_inst f (Option.get !used)
  in
  List.iter
    (fun (src, pipeline, want_stage, want) ->
      match Compile.source pipeline src with
      | Ok _ -> Alcotest.failf "%s: compiled" want_stage
      | Error e ->
        Alcotest.(check string) "stage" want_stage (stage e);
        let m = Compile.message e in
        if not (String.starts_with ~prefix:want m) then
          Alcotest.failf "%s: expected %S, got %S" want_stage want m)
    [
      ("kernel k(float* a) { a[0] = $; }\n", ignore, "Lex",
       "lex error: line 1: unexpected character $");
      ("kernel k(float* a) { a[0] = ; }\n", ignore, "Parse",
       "parse error: expected expression, got ';'");
      ("kernel k(float* a) { a[0] = zz; }\n", ignore, "Lower",
       "lowering error: undefined variable zz");
      (sum_src, (fun _ -> failwith "boom"), "Crashed",
       "pipeline crashed: Failure(\"boom\")");
      (sum_src, break_ir, "Ill_formed", "optimized IR is ill-formed: ");
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_printer_roundtrip_smoke () =
  let f = compile sum_src in
  let text = Printer.to_string f in
  Alcotest.(check bool) "mentions mu" true (contains text "mu(");
  Alcotest.(check bool) "mentions while" true (contains text "while")

let suite =
  [
    Alcotest.test_case "sum" `Quick test_sum;
    Alcotest.test_case "sum zero trip" `Quick test_sum_zero_trip;
    Alcotest.test_case "conditional" `Quick test_conditional;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "while loop" `Quick test_while;
    Alcotest.test_case "running example (no alias)" `Quick test_running_example_no_alias;
    Alcotest.test_case "running example (alias)" `Quick test_running_example_alias;
    Alcotest.test_case "ternary" `Quick test_ternary;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "compile outcomes are typed" `Quick
      test_compile_outcomes;
    Alcotest.test_case "printer smoke" `Quick test_printer_roundtrip_smoke;
  ]
