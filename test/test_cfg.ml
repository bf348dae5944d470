(* PSSA -> CFG lowering tests: for every kernel and input, the CFG
   interpretation must be observationally equivalent to the PSSA one. *)

open Harness

let kernels_with_inputs =
  [
    ( "sum",
      {|
      kernel sum(float* a, float* out, int n) {
        float s = 0.0;
        for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
        out[0] = s;
      }
    |},
      [ ints [ 0; 20; 17 ]; ints [ 0; 20; 0 ]; ints [ 0; 20; 1 ] ] );
    ( "relu",
      {|
      kernel relu(float* a, float* b, int n) {
        for (int i = 0; i < n; i = i + 1) {
          float x = a[i];
          if (x > 0.0) { b[i] = x; } else { b[i] = 0.0 - x; }
        }
      }
    |},
      [ ints [ 0; 12; 10 ] ] );
    ( "rowsum",
      {|
      kernel rowsum(float* a, float* out, int n, int m) {
        for (int i = 0; i < n; i = i + 1) {
          float s = 0.0;
          for (int j = 0; j < m; j = j + 1) { s = s + a[i * m + j]; }
          out[i] = s;
        }
      }
    |},
      [ ints [ 0; 24; 4; 5 ]; ints [ 0; 24; 0; 5 ]; ints [ 0; 24; 4; 0 ] ] );
    ( "fig1",
      {|
      kernel fig1(float* X, float* Y) {
        Y[0] = 0.0;
        if (X[0] != 0.0) { cold_func(); }
        Y[1] = 0.0;
      }
    |},
      [ ints [ 4; 1 ]; ints [ 3; 3 ]; ints [ 4; 3 ] ] );
    ( "guarded accumulation",
      {|
      kernel s258ish(float* a, float* b, float* c, float* d, float* e, float* aa, int n) {
        float s = 0.0;
        for (int i = 0; i < n; i = i + 1) {
          if (a[i] > 0.0) { s = d[i] * d[i]; }
          b[i] = s * c[i] + d[i];
          e[i] = (s + 1.0) * aa[i];
        }
      }
    |},
      [ ints [ 0; 8; 16; 24; 32; 40; 8 ] ] );
    ( "while with conditional update",
      {|
      kernel collatz(float* out, int start) {
        int x = start;
        int steps = 0;
        while (x != 1) {
          if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
          steps = steps + 1;
        }
        out[0] = (float) steps;
      }
    |},
      [ ints [ 0; 6 ]; ints [ 0; 1 ]; ints [ 0; 27 ] ] );
  ]

let test_equivalence () =
  List.iter
    (fun (name, src, input_sets) ->
      let f = compile src in
      List.iter
        (fun args ->
          let mem = float_mem 64 (fun i -> Float.of_int ((i * 7 mod 13) - 5) *. 0.25) in
          let a = run_pssa f ~args ~mem in
          let b = run_cfg f ~args ~mem in
          if not (cross_equivalent a b) then
            Alcotest.failf "CFG lowering changed behaviour of %s" name)
        input_sets)
    kernels_with_inputs

(* Named benchmark kernels the paper leans on, checked differentially:
   the PSSA interpretation of the *untransformed* kernel must match the
   CFG interpretation of the fully sv+v-optimized one, on the kernel's
   own inputs and heap. *)
module W = Fgv_bench.Workload

let named_kernel_cases =
  [
    ("s131", Fgv_bench.Tsvc.kernels);
    ("floyd-warshall", Fgv_bench.Polybench.kernels);
    ("lbm_r", Fgv_bench.Specfp.kernels);
  ]

let test_named_kernel_differential () =
  List.iter
    (fun (name, pool) ->
      let k = List.find (fun k -> k.W.k_name = name) pool in
      let reference = compile k.W.k_source in
      let subject = compile k.W.k_source in
      Fgv_passes.Pipelines.run "sv+v" subject;
      let mem = float_mem k.W.k_heap k.W.k_init in
      let a = run_pssa reference ~args:k.W.k_args ~mem in
      let b = run_cfg subject ~args:k.W.k_args ~mem in
      if not (cross_equivalent a b) then
        Alcotest.failf "PSSA/CFG differential failed for %s" name)
    named_kernel_cases

let test_branch_counter () =
  (* a loop of n iterations must execute at least n conditional branches *)
  let f =
    compile
      {|
      kernel count(float* a, int n) {
        for (int i = 0; i < n; i = i + 1) { a[i] = 1.0; }
      }
    |}
  in
  let mem = float_mem 16 (fun _ -> 0.0) in
  let out = run_cfg f ~args:(ints [ 0; 10 ]) ~mem in
  Alcotest.(check bool) "branches >= iterations" true (out.counters.branches >= 10)

let test_static_size () =
  let f = compile "kernel tiny(float* a) { a[0] = 1.0; }" in
  let prog = Fgv_cfg.Lower.lower f in
  Alcotest.(check bool) "nonzero size" true (Fgv_cfg.Cir.static_size prog > 0)

let suite =
  [
    Alcotest.test_case "PSSA/CFG equivalence" `Quick test_equivalence;
    Alcotest.test_case "named kernel differential (s131, floyd-warshall, lbm_r)"
      `Quick test_named_kernel_differential;
    Alcotest.test_case "branch counter" `Quick test_branch_counter;
    Alcotest.test_case "static size" `Quick test_static_size;
  ]
