(* Native backend tests: pinned integer semantics, golden C output,
   compile-and-run equivalence against the CFG interpreter, trap
   fidelity, and determinism of the bench lane's native rows.

   Everything that needs a C compiler skips (with a message) when the
   host has none; the Intsem and golden-output groups run everywhere. *)

open Fgv_pssa
module W = Fgv_bench.Workload
module N = Fgv_backend.Native
module NR = Fgv_bench.Native_rows

let require_cc () =
  if not (N.available ()) then begin
    print_endline "skipping: no C compiler on PATH (set FGV_CC)";
    Alcotest.skip ()
  end

(* ------------------------------------------------- Intsem pinning --- *)

(* The portable integer semantics every evaluator (both interpreters,
   the constant folder, the C backend) must share.  These tests pin the
   OCaml reference; the native groups below check the C transliteration
   against it end-to-end. *)

let test_intsem_wrap () =
  Alcotest.(check int) "bits" 63 Intsem.bits;
  Alcotest.(check int) "add wraps" min_int (Intsem.add max_int 1);
  Alcotest.(check int) "sub wraps" max_int (Intsem.sub min_int 1);
  Alcotest.(check int) "mul wraps" min_int (Intsem.mul min_int (-1));
  Alcotest.(check int) "wrap is identity in range" 42 (Intsem.wrap 42)

let test_intsem_divrem () =
  Alcotest.(check int) "div truncates toward zero" (-3) (Intsem.div (-7) 2);
  Alcotest.(check int) "div truncates toward zero" (-3) (Intsem.div 7 (-2));
  Alcotest.(check int) "rem takes dividend sign" (-1) (Intsem.rem (-7) 2);
  Alcotest.(check int) "rem takes dividend sign" 1 (Intsem.rem 7 (-2));
  Alcotest.(check int) "min_int / -1 wraps" min_int (Intsem.div min_int (-1))

let test_intsem_of_float () =
  Alcotest.(check int) "truncates toward zero" (-2) (Intsem.of_float (-2.9));
  Alcotest.(check int) "truncates toward zero" 2 (Intsem.of_float 2.9);
  Alcotest.(check int) "NaN is 0" 0 (Intsem.of_float Float.nan);
  Alcotest.(check int) "+inf is 0" 0 (Intsem.of_float Float.infinity);
  Alcotest.(check int) "-inf is 0" 0 (Intsem.of_float Float.neg_infinity);
  Alcotest.(check int) "2^63 is out of range" 0 (Intsem.of_float Intsem.two63);
  (* -2^63 is IN 64-bit range; Int64.to_int drops the top bit -> 0 *)
  Alcotest.(check int) "-2^63 wraps to 0" 0 (Intsem.of_float (-.Intsem.two63));
  Alcotest.(check int) "exact large value" 1_000_000_000_000_000_000
    (Intsem.of_float 1e18)

let test_intsem_fminmax () =
  Alcotest.(check bool) "fmin keeps NaN" true
    (Float.is_nan (Intsem.fmin Float.nan 1.0));
  Alcotest.(check bool) "fmax keeps NaN" true
    (Float.is_nan (Intsem.fmax 1.0 Float.nan));
  Alcotest.(check bool) "fmin prefers -0." true
    (1.0 /. Intsem.fmin (-0.) 0. = Float.neg_infinity);
  Alcotest.(check bool) "fmax prefers +0." true
    (1.0 /. Intsem.fmax (-0.) 0. = Float.infinity);
  Alcotest.(check (float 0.)) "plain min" 1.0 (Intsem.fmin 2.0 1.0);
  Alcotest.(check (float 0.)) "plain max" 2.0 (Intsem.fmax 2.0 1.0)

(* --------------------------------------------------- golden output -- *)

let tsvc name = List.find (fun k -> k.W.k_name = name) Fgv_bench.Tsvc.kernels
let poly name =
  List.find (fun k -> k.W.k_name = name) Fgv_bench.Polybench.kernels
let spec name = List.find (fun k -> k.W.k_name = name) Fgv_bench.Specfp.kernels

(* The fast-mode C for s131 under sv+versioning, compared byte-for-byte
   against the checked-in golden file.  Emission order is fully
   deterministic (sorted declarations, creation-order blocks, baked
   arguments and memory), so any diff is a deliberate emitter change:
   regenerate with
   [dune exec test/gen_golden.exe > test/golden_s131.c] and review the
   diff. *)
let s131_fast_c () =
  let k = tsvc "s131" in
  let prog = Fgv_cfg.Lower.lower (W.compile ("sv+v", true) k) in
  Fgv_backend.Emit.fast prog ~args:k.W.k_args ~mem:(W.fresh_mem k)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_s131 () =
  let got = s131_fast_c () in
  (* dune runtest runs us in test/'s build dir (where the dep is
     staged); a bare [dune exec test/test_main.exe] runs from the repo
     root *)
  let path =
    if Sys.file_exists "golden_s131.c" then "golden_s131.c"
    else "test/golden_s131.c"
  in
  let want = read_file path in
  if got <> want then begin
    (* a plain string check would dump both multi-KB files; report the
       first differing line instead *)
    let gl = String.split_on_char '\n' got in
    let wl = String.split_on_char '\n' want in
    let rec first_diff i = function
      | g :: gs, w :: ws ->
        if g <> w then Alcotest.failf "line %d differs:\n got: %s\nwant: %s" i g w
        else first_diff (i + 1) (gs, ws)
      | [], w :: _ -> Alcotest.failf "golden has extra line %d: %s" i w
      | g :: _, [] -> Alcotest.failf "emitted extra line %d: %s" i g
      | [], [] -> ()
    in
    first_diff 1 (gl, wl);
    Alcotest.fail "files differ but no line does (impossible)"
  end

(* ---------------------------------------- checked-run equivalence --- *)

(* Compile [prog] to checked C, run it once, and return its run; a
   failed compile or an unreadable run fails the test. *)
let run_native ?fuel name prog ~args ~mem : Interp.run_class =
  match N.compile_checked ?fuel prog ~mem with
  | Error e -> Alcotest.failf "%s: native compile failed: %s" name e
  | Ok c -> (
    let res = N.run_checked c ~args in
    N.release c;
    match res with
    | Error e -> Alcotest.failf "%s: native run failed: %s" name e
    | Ok run -> run)

(* The checked binary's run must agree with the CFG interpreter's
   finished run by the differential contract. *)
let check_obs_equiv name (native : Interp.run_class)
    (iout : Fgv_cfg.Cinterp.outcome) =
  match
    Interp.runs_agree (Interp.Finished (Fgv_cfg.Cinterp.observe iout)) native
  with
  | None -> ()
  | Some detail -> Alcotest.failf "%s: native run: %s" name detail

(* Compile [k] under sv+versioning, run the checked native binary, and
   demand exact agreement (class, every memory cell bit-for-bit, full
   impure-call trace) with the CFG interpreter. *)
let checked_equiv (k : W.kernel) () =
  require_cc ();
  let prog = Fgv_cfg.Lower.lower (W.compile ("sv+v", true) k) in
  let iout = Fgv_cfg.Cinterp.run prog ~args:k.W.k_args ~mem:(W.fresh_mem k) in
  let native =
    run_native k.W.k_name prog ~args:k.W.k_args ~mem:(W.fresh_mem k)
  in
  check_obs_equiv k.W.k_name native iout

(* -------------------------------------------- parallel phi copies -- *)

(* s291 carries [im1 = i] around its loop: lowered to the CFG, the
   header phi of [im1] reads the header phi of [i] across the back edge,
   so it must see the previous iteration's [i].  Copying the phis one
   after another handed it the new one.  Under [none], [rle] and [dse]
   the PSSA interpreter, the CFG interpreter and the checked native C
   must leave the same final memory. *)
let test_s291_parallel_phis () =
  let k = tsvc "s291" in
  List.iter
    (fun pipeline ->
      let f = Harness.compile k.W.k_source in
      Fgv_passes.Pipelines.run pipeline f;
      let name = "s291/" ^ pipeline in
      let pssa = Interp.run f ~args:k.W.k_args ~mem:(W.fresh_mem k) in
      let prog = Fgv_cfg.Lower.lower f in
      let cfg = Fgv_cfg.Cinterp.run prog ~args:k.W.k_args ~mem:(W.fresh_mem k) in
      (match
         Interp.(observation_diff (observe pssa) (Fgv_cfg.Cinterp.observe cfg))
       with
      | None -> ()
      | Some detail -> Alcotest.failf "%s: PSSA vs CFG: %s" name detail);
      if N.available () then
        check_obs_equiv name
          (run_native name prog ~args:k.W.k_args ~mem:(W.fresh_mem k))
          cfg)
    [ "none"; "rle"; "dse" ]

(* ------------------------------------------------------ trap paths -- *)

(* An out-of-bounds store must be a *typed* trap on both sides: the
   interpreter raises Value.Trap, and the emitted C hits the same
   bounds check and reports class "trap" — never C-level undefined
   behaviour that scribbles past the heap. *)
let test_native_oob_trap () =
  require_cc ();
  let source = "kernel oob(float *a, int n) { a[n] = 1.0; }" in
  let f = Harness.compile ~restrict:false source in
  let prog = Fgv_cfg.Lower.lower f in
  let heap = 8 in
  let mem () = Array.init heap (fun _ -> Value.VFloat 0.0) in
  let args = [ Value.VInt 0; Value.VInt heap ] in
  (* address [heap] is one past the end *)
  (match Fgv_cfg.Cinterp.run prog ~args ~mem:(mem ()) with
  | _ -> Alcotest.fail "interpreter did not trap on OOB store"
  | exception Value.Trap _ -> ());
  match run_native "oob" prog ~args ~mem:(mem ()) with
  | Interp.Trapped _ -> ()
  | run ->
    Alcotest.failf "native class: expected a trap, got %s"
      (Interp.class_name run)

(* --------------------------------------------- one run classification *)

(* One program per run class.  The PSSA interpreter, the CFG interpreter
   and the checked binary must each land in the named class and agree
   pairwise by the differential contract. *)
let test_three_executors_classify_alike () =
  require_cc ();
  let compile = Harness.compile ~restrict:false in
  let heap = 8 and fuel = 1000 in
  let cases =
    [
      ( "finished store",
        compile "kernel st(float* a) { a[0] = 1.0; }",
        [ 0 ],
        function Interp.Finished _ -> true | _ -> false );
      ( "out-of-bounds store",
        compile "kernel oob(float* a, int n) { a[n] = 1.0; }",
        [ 0; heap ],
        function Interp.Trapped _ -> true | _ -> false );
      ( "undef-address store",
        Harness.build_undef_access ~store:true,
        [ 0 ],
        function Interp.Undef_trap "store" -> true | _ -> false );
      ( "endless loop",
        compile
          "kernel spin(float* a) { int x = 1; while (x > 0) { x = x + 1; } \
           a[0] = 1.0; }",
        [ 0 ],
        function Interp.Exhausted -> true | _ -> false );
    ]
  in
  List.iter
    (fun (name, f, args, in_class) ->
      let args = List.map (fun n -> Value.VInt n) args in
      let mem () = Array.make heap (Value.VFloat 0.0) in
      let prog = Fgv_cfg.Lower.lower f in
      let pssa =
        ( "PSSA interpreter",
          Interp.classify (fun () ->
              Interp.observe (Interp.run ~fuel f ~args ~mem:(mem ()))) )
      in
      let cfg =
        ( "CFG interpreter",
          Interp.classify (fun () ->
              Fgv_cfg.Cinterp.(observe (run ~fuel prog ~args ~mem:(mem ())))) )
      in
      let native =
        ("checked binary", run_native ~fuel name prog ~args ~mem:(mem ()))
      in
      List.iter
        (fun (who, run) ->
          if not (in_class run) then
            Alcotest.failf "%s: the %s ran as %s" name who
              (Interp.class_name run))
        [ pssa; cfg; native ];
      let agree (w1, r1) (w2, r2) =
        match Interp.runs_agree r1 r2 with
        | None -> ()
        | Some detail -> Alcotest.failf "%s: %s vs %s: %s" name w1 w2 detail
      in
      agree pssa cfg;
      agree pssa native;
      agree cfg native)
    cases

(* --------------------------------------------- bench-lane fingerprint *)

(* The native bench rows must be deterministic in everything except the
   wall-clock numbers: the same kernels, model speedups, and checksum
   verdicts at any job count.  (The timing fields live under "timing"
   keys in the JSON exactly so CI can strip them and byte-compare.) *)
let row_fingerprint (r : NR.row) =
  Printf.sprintf "%s|%s|%.9f|%b" r.NR.nr_figure r.NR.nr_name
    r.NR.nr_model_speedup r.NR.nr_checksum_ok

let test_native_rows_jobs_deterministic () =
  require_cc ();
  let kernels = [ "s000"; "s131" ] in
  let fp jobs =
    String.concat "\n" (List.map row_fingerprint (NR.rows ~kernels ~jobs ()))
  in
  let one = fp 1 in
  let four = fp 4 in
  Alcotest.(check string) "rows agree across job counts" one four;
  Alcotest.(check int) "two rows" 2
    (List.length (String.split_on_char '\n' one))

let suite =
  [
    Alcotest.test_case "intsem: 63-bit wraparound" `Quick test_intsem_wrap;
    Alcotest.test_case "intsem: div/rem truncate toward zero" `Quick
      test_intsem_divrem;
    Alcotest.test_case "intsem: float-to-int cast" `Quick test_intsem_of_float;
    Alcotest.test_case "intsem: fmin/fmax NaN and signed zero" `Quick
      test_intsem_fminmax;
    Alcotest.test_case "golden fast-mode C for s131" `Quick test_golden_s131;
    Alcotest.test_case "checked run equals interpreter: s131" `Slow
      (checked_equiv (tsvc "s131"));
    Alcotest.test_case "checked run equals interpreter: floyd-warshall" `Slow
      (checked_equiv (poly "floyd-warshall"));
    Alcotest.test_case "checked run equals interpreter: lbm_r" `Slow
      (checked_equiv (spec "lbm_r"));
    Alcotest.test_case "s291 phis copy in parallel (none, rle, dse)" `Quick
      test_s291_parallel_phis;
    Alcotest.test_case "out-of-bounds store traps natively" `Slow
      test_native_oob_trap;
    Alcotest.test_case "three executors classify runs alike" `Slow
      test_three_executors_classify_alike;
    Alcotest.test_case "native bench rows deterministic across jobs" `Slow
      test_native_rows_jobs_deterministic;
  ]
