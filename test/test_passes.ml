(* Pass and pipeline tests.

   The master property: every pipeline preserves observational behaviour
   (final memory + external call trace) on every kernel and input.  On
   top of that, targeted tests check that the transformations actually
   fire: SLP emits vector stores, versioning enables vectorization that
   static SLP rejects, RLE removes dynamic loads, etc. *)

open Fgv_pssa
open Harness
module P = Fgv_passes

let saxpy_src =
  {|
  kernel saxpy(float* a, float* b, float* c, int n, float x) {
    for (int i = 0; i < n; i = i + 1) {
      a[i] = x * b[i] + c[i];
    }
  }
|}

let sum_src =
  {|
  kernel sum(float* a, float* out, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
    out[0] = s;
  }
|}

let s281_src =
  {|
  kernel s281(float* a, float* b, float* c, int n) {
    for (int i = 0; i < n; i = i + 1) {
      float x = a[n - i - 1] + b[i] * c[i];
      a[i] = x - 1.0;
      b[i] = x;
    }
  }
|}

let s258_src =
  {|
  kernel s258(float* a, float* b, float* c, float* d, float* e, float* aa, int n) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
      if (a[i] > 0.0) { s = d[i] * d[i]; }
      b[i] = s * c[i] + d[i];
      e[i] = (s + 1.0) * aa[i];
    }
  }
|}

let fw_src =
  {|
  kernel floyd(float* path, int n) {
    for (int k = 0; k < n; k = k + 1) {
      for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
          float alt = path[i * n + k] + path[k * n + j];
          path[i * n + j] = path[i * n + j] < alt ? path[i * n + j] : alt;
        }
      }
    }
  }
|}

let redundant_loads_src =
  {|
  kernel reload(float* a, float* b, float* out, int n) {
    for (int i = 0; i < n; i = i + 1) {
      float x = a[0];
      b[i] = x * 2.0;
      float y = a[0];
      out[i] = y + x;
    }
  }
|}

(* (name, source, argument sets, heap size) *)
let kernels =
  [
    ("saxpy disjoint", saxpy_src,
     [ [ Value.VInt 0; VInt 32; VInt 64; VInt 13; VFloat 2.5 ];
       [ VInt 0; VInt 32; VInt 64; VInt 0; VFloat 2.5 ];
       [ VInt 0; VInt 32; VInt 64; VInt 4; VFloat 2.5 ] ], 128);
    ("saxpy aliased", saxpy_src,
     [ [ Value.VInt 0; VInt 1; VInt 2; VInt 13; VFloat 1.5 ];
       [ VInt 4; VInt 4; VInt 4; VInt 8; VFloat 0.5 ] ], 128);
    ("sum", sum_src, [ ints [ 0; 100; 17 ]; ints [ 0; 100; 3 ] ], 128);
    ("s281", s281_src,
     [ ints [ 0; 40; 80; 12 ]; ints [ 0; 40; 80; 5 ] ], 128);
    ("s258", s258_src,
     [ ints [ 0; 16; 32; 48; 64; 80; 12 ] ], 128);
    ("floyd-warshall", fw_src, [ ints [ 0; 5 ]; ints [ 0; 4 ] ], 128);
    ("redundant loads", redundant_loads_src,
     [ ints [ 0; 8; 40; 8 ]; ints [ 0; 1; 40; 8 ] ], 128);
  ]

let mem_for size = float_mem size (fun i -> Float.of_int ((i * 13 mod 29) - 7) *. 0.5)

let test_pipelines_preserve_semantics () =
  List.iter
    (fun (kname, src, arg_sets, size) ->
      let reference = compile src in
      List.iter
        (fun pname ->
          let f = compile src in
          P.Pipelines.run pname f;
          (match Verifier.verify_or_message f with
          | None -> ()
          | Some msg ->
            Alcotest.failf "%s on %s: ill-formed IR: %s" pname kname msg);
          List.iter
            (fun args ->
              let mem = mem_for size in
              let a = run_pssa reference ~args ~mem in
              let b = run_pssa f ~args ~mem in
              if Interp.(observation_diff (observe a) (observe b)) <> None
              then
                Alcotest.failf "%s changed behaviour of %s" pname kname)
            arg_sets)
        P.Pipelines.names)
    kernels

let test_pipelines_preserve_semantics_cfg () =
  (* the optimized program must also survive CFG lowering *)
  List.iter
    (fun (kname, src, arg_sets, size) ->
      let reference = compile src in
      let f = compile src in
      P.Pipelines.run "sv+v" f;
      List.iter
        (fun args ->
          let mem = mem_for size in
          let a = run_pssa reference ~args ~mem in
          let b = run_cfg f ~args ~mem in
          if not (cross_equivalent a b) then
            Alcotest.failf "CFG of sv_versioning(%s) differs" kname)
        arg_sets)
    kernels

let test_unroll_trips () =
  let f0 = compile sum_src in
  List.iter
    (fun n ->
      let f = compile sum_src in
      let unrolled = P.Unroll.run f in
      Alcotest.(check int) "one loop unrolled" 1 unrolled;
      (match Verifier.verify_or_message f with
      | None -> ()
      | Some m -> Alcotest.failf "unroll broke IR: %s" m);
      let mem = mem_for 64 in
      let a = run_pssa f0 ~args:(ints [ 0; 40; n ]) ~mem in
      let b = run_pssa f ~args:(ints [ 0; 40; n ]) ~mem in
      if Interp.(observation_diff (observe a) (observe b)) <> None then
        Alcotest.failf "unroll changed behaviour at trip %d" n)
    [ 0; 1; 3; 4; 5; 8; 17 ]

let test_slp_vectorizes_disjoint () =
  (* restrict-qualified saxpy: static SLP alone should vectorize *)
  let src =
    {|
    kernel saxpy(float* restrict a, float* restrict b, float* restrict c, int n, float x) {
      for (int i = 0; i < n; i = i + 1) { a[i] = x * b[i] + c[i]; }
    }
  |}
  in
  let f = compile src in
  P.Pipelines.run "sv" f;
  let mem = mem_for 128 in
  let out = run_pssa f ~args:[ VInt 0; VInt 32; VInt 64; VInt 16; VFloat 2.0 ] ~mem in
  Alcotest.(check bool) "vector stores executed" true
    (out.counters.vector_stores > 0)

let test_versioning_beats_static_slp () =
  (* without restrict, static SLP must reject (may-alias crossers), while
     versioning vectorizes with run-time checks *)
  let f_static = compile saxpy_src in
  P.Pipelines.run "sv" f_static;
  let f_versioned = compile saxpy_src in
  P.Pipelines.run "sv+v" f_versioned;
  let args = [ Value.VInt 0; VInt 32; VInt 64; VInt 16; VFloat 2.0 ] in
  let out_s = run_pssa f_static ~args ~mem:(mem_for 128) in
  let out_v = run_pssa f_versioned ~args ~mem:(mem_for 128) in
  Alcotest.(check int) "static SLP cannot vectorize may-alias saxpy" 0
    out_s.counters.vector_stores;
  Alcotest.(check bool) "versioned SLP vectorizes it" true
    (out_v.counters.vector_stores > 0)

let test_loopvec_classic () =
  (* the classic loop vectorizer handles may-alias saxpy with upfront
     checks *)
  let f = compile saxpy_src in
  P.Pipelines.run "o3-novec" f;
  Alcotest.(check int) "one loop vectorized" 1 (P.Loopvec.run f);
  let args = [ Value.VInt 0; VInt 32; VInt 64; VInt 16; VFloat 2.0 ] in
  let out = run_pssa f ~args ~mem:(mem_for 128) in
  Alcotest.(check bool) "vector stores" true (out.counters.vector_stores > 0);
  (* aliased inputs fall back to the scalar clone *)
  let out2 = run_pssa f ~args:[ VInt 0; VInt 1; VInt 2; VInt 16; VFloat 2.0 ] ~mem:(mem_for 128) in
  Alcotest.(check int) "aliased: no vector stores" 0 out2.counters.vector_stores

let test_loopvec_rejects_floyd () =
  (* classic loop versioning cannot handle the in-place update pattern:
     the upfront whole-range checks always fail (the read and written
     rows overlap whenever i = k, and path[i][k] always falls in the
     written row's window), so the vector body never executes *)
  let f = compile fw_src in
  P.Pipelines.run "o3-novec" f;
  ignore (P.Loopvec.run f);
  let out = run_pssa f ~args:(ints [ 0; 8 ]) ~mem:(mem_for 128) in
  Alcotest.(check int) "floyd-warshall never runs vector code" 0
    out.counters.vector_stores

let test_sv_versioning_vectorizes_floyd () =
  let f = compile fw_src in
  P.Pipelines.run "sv+v" f;
  let out = run_pssa f ~args:(ints [ 0; 8 ]) ~mem:(mem_for 128) in
  Alcotest.(check bool) "floyd-warshall vectorized with versioning" true
    (out.counters.vector_stores > 0)

let test_rle_removes_loads () =
  let f_base = compile redundant_loads_src in
  P.Pipelines.run "rle-baseline" f_base;
  let f_rle = compile redundant_loads_src in
  P.Pipelines.run "rle" f_rle;
  let args = ints [ 0; 8; 40; 8 ] in
  let out_base = run_pssa f_base ~args ~mem:(mem_for 64) in
  let out_rle = run_pssa f_rle ~args ~mem:(mem_for 64) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer dynamic loads (%d -> %d)" out_base.counters.loads
       out_rle.counters.loads)
    true
    (out_rle.counters.loads < out_base.counters.loads)

(* Fig. 22 counts the LICM/GVN work both RLE pipelines do after their
   shared scalar prefix by subtracting an "o3-novec" run's counters, so
   the prefix must be exactly "o3-novec"'s stages, in order. *)
let test_rle_pipelines_start_with_o3_novec () =
  let stage_names pipeline =
    let f = compile redundant_loads_src in
    let names = ref [] in
    P.Pipelines.run pipeline ~on_pass:(fun name _ -> names := name :: !names) f;
    List.rev !names
  in
  let prefix = stage_names "o3-novec" in
  List.iter
    (fun pipeline ->
      let names = stage_names pipeline in
      Alcotest.(check (list string))
        (pipeline ^ " begins with o3-novec's stages")
        prefix
        (List.filteri (fun i _ -> i < List.length prefix) names);
      Alcotest.(check bool)
        (pipeline ^ " runs stages after the prefix")
        true
        (List.length names > List.length prefix))
    [ "rle"; "rle-baseline" ]

(* The figure cells that count pass work: Fig. 22's LICM+/GVN+ (every
   baseline count is 0, so a cell is the RLE pipeline's post-prefix
   count) and the clients figure's forwarded/killed/pieces. *)
let test_figure_work_cells () =
  let module E = Fgv_bench.Experiments in
  let rows = E.rle_rows ~check:false () in
  Alcotest.(check (list (pair string (float 0.0))))
    "Fig. 22 LICM+"
    (List.map (fun r -> (r.E.f_name, 0.0)) rows)
    (List.map (fun r -> (r.E.f_name, r.E.f_licm_extra)) rows);
  Alcotest.(check (list (float 0.0)))
    "Fig. 22 GVN+"
    [ 3.0; 5.0; 1.0; 10.0; 14.0; 0.0; 1.0 ]
    (List.map (fun r -> r.E.f_gvn_extra) rows);
  Alcotest.(check (list (pair string (triple int int int))))
    "clients forwarded/killed/pieces"
    [
      ("dse/s222", (1, 1, 0));
      ("distribute/s222", (0, 0, 2));
      ("distribute/s2251", (0, 0, 2));
      ("combined/s222", (1, 1, 6));
      ("combined/s2251", (0, 0, 2));
    ]
    (List.map
       (fun r ->
         ( r.E.v_client ^ "/" ^ r.E.v_kernel,
           (r.E.v_forwarded, r.E.v_killed, r.E.v_pieces) ))
       (E.clients_rows ~check:false ()))

let test_dce_removes_dead () =
  let f = compile "kernel dead(float* a) { float x = 1.0 + 2.0; a[0] = 3.0; }" in
  let n = P.Dce.run f in
  Alcotest.(check bool) "removed something" true (n > 0);
  (match Verifier.verify_or_message f with
  | None -> ()
  | Some m -> Alcotest.failf "DCE broke IR: %s" m)

(* A dead loop nest leaves nothing behind.  LICM hoists the inner
   loop's guard compare out of the outer loop; DCE must then drop the
   inner loop with the outer one, or the guard it still reads keeps the
   compare, the bound and the outer guard alive. *)
let test_dce_removes_dead_nest () =
  let src =
    {|
      kernel dn(float* a, int n, int m) {
        int lim = m * 3 + 1;
        for (int i = 0; i < n; i = i + 1) {
          for (int j = 0; j < lim; j = j + 1) { float x = 1.0; }
        }
        a[0] = 1.0;
      }
    |}
  in
  let f =
    match Fgv_frontend.Compile.source (P.Pipelines.run "o3-novec") src with
    | Ok f -> f
    | Error e -> Alcotest.fail (Fgv_frontend.Compile.message e)
  in
  Alcotest.(check (list string))
    "only the store and its operands are left"
    [ "func dn(a: int, n: int, m: int) {";
      "  %a.0 = arg 0 (a) ; true";
      "  %v24 = const 1 ; true";
      "  store [%a.0], %v24 ; true";
      "}" ]
    (String.split_on_char '\n' (String.trim (Printer.to_string f)))

let test_constfold () =
  let f = compile "kernel cf(float* a) { int i = 2 * 3 + 1; a[i] = 4.0; }" in
  ignore (P.Constfold.run f);
  ignore (P.Dce.run f);
  let out = run_pssa f ~args:(ints [ 0 ]) ~mem:(mem_for 16) in
  Alcotest.(check (float 1e-9)) "a[7]" 4.0 (float_at out.memory 7)

let test_gvn_dedups () =
  let f =
    compile
      {|
      kernel g(float* a, float* b) {
        float x = a[0] * 2.0;
        float y = a[0] * 2.0;
        b[0] = x + y;
      }
    |}
  in
  let n = P.Gvn.run f in
  Alcotest.(check bool) "gvn found redundancy" true (n > 0);
  ignore (P.Dce.run f);
  let out = run_pssa f ~args:(ints [ 0; 4 ]) ~mem:(float_mem 8 (fun _ -> 3.0)) in
  Alcotest.(check (float 1e-9)) "b[0]" 12.0 (float_at out.memory 4)

(* GVN keys a float constant by what an exact rendering tells apart:
   [0.0] and [-0.0] are two values, and so are [nan] and [-nan]; a
   repeated [-0.0], or a NaN with another payload of the same sign, is
   the same value. *)
let test_gvn_float_keys () =
  let open Builder in
  let b = create ~name:"fk" ~params:[ ("a", Ir.Tint) ] in
  let a = arg b 0 ~ty:Ir.Tint in
  let consts =
    [
      0.0;
      -0.0;
      Float.nan;
      -.Float.nan;
      -0.0;
      Int64.float_of_bits 0x7ff0000000000002L;
    ]
  in
  let stores =
    List.mapi
      (fun k x ->
        let v = const_float b x in
        store b ~addr:(add b a (const_int b k)) ~value:v)
      consts
  in
  let f = finish b in
  Alcotest.(check int) "two repeats merged" 2 (P.Gvn.run f);
  let stored =
    List.map
      (fun s ->
        match (Ir.inst f s).kind with
        | Ir.Store { value; _ } -> value
        | _ -> Alcotest.fail "not a store")
      stores
  in
  match stored with
  | [ pz; nz; pn; nn; nz'; pn' ] ->
    Alcotest.(check int) "distinct values"
      4 (List.length (List.sort_uniq compare [ pz; nz; pn; nn ]));
    Alcotest.(check int) "-0.0 repeat" nz nz';
    Alcotest.(check int) "positive NaN repeat" pn pn'
  | _ -> Alcotest.fail "six stores"

let test_licm_hoists () =
  let f =
    compile
      {|
      kernel l(float* a, int n, float x) {
        for (int i = 0; i < n; i = i + 1) { a[i] = x * x; }
      }
    |}
  in
  let n = P.Licm.run f in
  Alcotest.(check bool) "hoisted the multiply" true (n > 0);
  let out = run_pssa f ~args:[ VInt 0; VInt 5; VFloat 3.0 ] ~mem:(mem_for 16) in
  Alcotest.(check (float 1e-9)) "a[4]" 9.0 (float_at out.memory 4)

(* -------------------------------------------- LICM x predicated code *)

(* After if-conversion the branch bodies live in the loop as predicated
   instructions; LICM must still hoist the invariant ones (predicate
   included) and leave the rest alone. *)

let test_licm_hoists_ifconverted_invariant () =
  let f =
    compile
      {|
      kernel lp(float* a, float* b, int n, float x) {
        for (int i = 0; i < n; i = i + 1) {
          if (x > 0.0) { a[i] = x * x; } else { a[i] = b[i]; }
        }
      }
    |}
  in
  let converted = P.Ifconv.run f in
  Alcotest.(check bool) "if-converted" true (converted > 0);
  let n = P.Licm.run f in
  (* both the compare and the predicated multiply are invariant; the
     multiply's predicate literal is the hoisted compare, so it goes out
     on the second sweep *)
  Alcotest.(check bool) "hoisted compare and multiply" true (n >= 2);
  (match Verifier.verify_or_message f with
  | None -> ()
  | Some m -> Alcotest.failf "LICM after ifconv broke IR: %s" m);
  let out =
    run_pssa f ~args:[ VInt 0; VInt 8; VInt 5; VFloat 3.0 ] ~mem:(mem_for 16)
  in
  Alcotest.(check (float 1e-9)) "then-branch a[4]" 9.0 (float_at out.memory 4);
  let out =
    run_pssa f
      ~args:[ VInt 0; VInt 8; VInt 5; VFloat (-1.0) ]
      ~mem:(float_mem 16 (fun i -> float_of_int i))
  in
  Alcotest.(check (float 1e-9)) "else-branch a[3]" 11.0 (float_at out.memory 3)

let rec items_contain_kind f pred items =
  List.exists
    (fun it ->
      match it with
      | Ir.I v -> pred (Ir.inst f v).Ir.kind
      | Ir.L lid -> items_contain_kind f pred (Ir.loop f lid).Ir.body)
    items

let loops_of f = List.filter (function Ir.L _ -> true | _ -> false) f.Ir.fbody

let test_licm_variant_predicate_needs_speculation () =
  (* the multiply's data operands are invariant but its predicate is
     computed from a[i] inside the loop; predicate literals count as
     operands, so LICM alone must leave it in place.  If-conversion is
     the missing speculation step: once the predicate is dropped, the
     same multiply hoists. *)
  let src =
    {|
      kernel lv(float* a, float* b, int n, float x) {
        for (int i = 0; i < n; i = i + 1) {
          if (a[i] > 0.0) { b[i] = x * x; }
        }
      }
    |}
  in
  let is_fmul = function Ir.Binop (Ir.Fmul, _, _) -> true | _ -> false in
  let f = compile src in
  ignore (P.Licm.run f);
  Alcotest.(check bool)
    "LICM alone keeps the predicated multiply in-loop" true
    (items_contain_kind f is_fmul (loops_of f));
  let g = compile src in
  Alcotest.(check bool) "if-converted" true (P.Ifconv.run g > 0);
  Alcotest.(check bool) "speculated multiply hoists" true (P.Licm.run g > 0);
  Alcotest.(check bool)
    "no multiply left in the loop" false
    (items_contain_kind g is_fmul (loops_of g));
  (match Verifier.verify_or_message g with
  | None -> ()
  | Some m -> Alcotest.failf "ifconv+LICM broke IR: %s" m);
  (* semantics: a alternates sign, so the masked store must only write
     the positive lanes *)
  let mem = float_mem 16 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  let out = run_pssa g ~args:[ VInt 0; VInt 8; VInt 4; VFloat 3.0 ] ~mem in
  Alcotest.(check (float 1e-9)) "b[2] written" 9.0 (float_at out.memory 10);
  Alcotest.(check (float 1e-9)) "b[3] masked" (-1.0) (float_at out.memory 11)

let test_licm_keeps_guarded_division () =
  (* invariant integer division under an if-converted guard: hoisting it
     would evaluate 8/k whenever the loop runs, trapping on k = 0 even
     though the guard rules that out — it must stay predicated inside *)
  let f =
    compile
      {|
      kernel ld(float* a, float* b, int n, int k) {
        for (int i = 0; i < n; i = i + 1) {
          if (k > 0) { int q = 8 / k; a[i] = b[q]; }
        }
      }
    |}
  in
  Alcotest.(check int) "ifconv refuses the trapping body" 0 (P.Ifconv.run f);
  ignore (P.Licm.run f);
  Alcotest.(check bool)
    "division still inside the loop" true
    (items_contain_kind f
       (function Ir.Binop (Ir.Div, _, _) -> true | _ -> false)
       (loops_of f));
  (* k = 0: the guard is false, the predicated division must not trap *)
  let mem = float_mem 16 (fun i -> float_of_int i) in
  let out = run_pssa f ~args:[ VInt 0; VInt 8; VInt 4; VInt 0 ] ~mem in
  Alcotest.(check (float 1e-9)) "a[2] untouched when k=0" 2.0
    (float_at out.memory 2);
  let out =
    run_pssa f
      ~args:[ VInt 0; VInt 8; VInt 4; VInt 2 ]
      ~mem:(float_mem 16 (fun i -> float_of_int i))
  in
  (* q = 4, b = base 8: a[i] = b[4] = 12.0 *)
  Alcotest.(check (float 1e-9)) "a[2] = b[4] when k=2" 12.0
    (float_at out.memory 2)

(* The printer on every instruction kind, every predicate shape, value
   names, out-of-range parameters and dead operands, against the
   [Printf] printer it replaced: generated programs reach only some of
   these (no disjunction is ever printed for them). *)
let test_printer_every_shape () =
  let open Builder in
  let b =
    create ~name:"shapes"
      ~params:[ ("a", Ir.Tint); ("x", Ir.Tfloat); ("w", Ir.Tvec (Ir.Tfloat, 4)) ]
  in
  let a = arg ~name:"a" b 0 ~ty:Ir.Tint in
  let x = arg b 1 ~ty:Ir.Tfloat in
  let far = arg b 7 ~ty:Ir.Tint in
  let c = cmp ~name:"c" b Ir.Lt a far in
  let d = cmp b Ir.Fgt x x in
  let e = const_bool b false in
  let p_or = Pred.or_ (Pred.lit c) (Pred.lit ~positive:false d) in
  let p_and = Pred.and_ (Pred.lit ~positive:false c) (Pred.lit e) in
  let mixed = Pred.and_ p_or (Pred.lit d) in
  List.iter
    (fun k -> ignore (const_float b k))
    [ 0.0; -0.0; 1.5; 1e-7; 123456789.0; Float.nan; Float.infinity ];
  ignore (undef b (Ir.Tvec (Ir.Tint, 4)));
  ignore (undef b Ir.Tbool);
  let i = binop b Ir.Rem a far ~ty:Ir.Tint in
  let f = binop b Ir.Fmax x x ~ty:Ir.Tfloat in
  let g = cast b Ir.Tfloat i in
  ignore (select b ~cond:c ~if_true:f ~if_false:g ~ty:Ir.Tfloat);
  ignore (phi b [ (p_or, f); (p_and, g); (Pred.fls, x) ] ~ty:Ir.Tfloat);
  ignore (emit ~pred:mixed b ~kind:(Ir.Load { addr = a }) ~ty:Ir.Tfloat);
  ignore (call ~effect:Ir.Pure b "sqrtf" [ x ] ~ty:Ir.Tfloat);
  ignore (call ~effect:Ir.Readonly b "peek" [ a; far ] ~ty:Ir.Tint);
  ignore (call b "log" [] ~ty:Ir.Tvoid);
  let sp = splat b x ~lanes:4 ~ty:Ir.Tfloat in
  let vb = vecbuild b [ x; f; g; x ] ~ty:Ir.Tfloat in
  ignore (extract b vb 3 ~ty:Ir.Tfloat);
  push_pred b (Pred.lit ~positive:false c);
  let lp = begin_loop b in
  let m = mu ~name:"m" b lp ~init:a ~ty:Ir.Tint in
  let inner = begin_loop b in
  let one = const_int b 1 in
  finish_loop b inner ~cont:Pred.fls;
  let next = add b m one in
  set_mu_recur b m next;
  finish_loop b lp ~cont:(Pred.lit d);
  pop_pred b;
  ignore (eta b lp m ~ty:Ir.Tint);
  ignore (store b ~addr:a ~value:sp);
  let dead = mul b i far in
  ignore (store b ~addr:dead ~value:x);
  let fn = finish b in
  Ir.remove_inst fn dead;
  fn.Ir.fbody <- List.filter (fun it -> it <> Ir.I dead) fn.Ir.fbody;
  Alcotest.(check string)
    "same text" (Printer_reference.to_string fn) (Printer.to_string fn);
  Ir.iter_insts fn (fun i ->
      Alcotest.(check string)
        "same instruction text"
        (Printer_reference.string_of_inst fn i)
        (Printer.string_of_inst fn i))

(* ------------------------- LICM, DCE and the printer vs references *)

(* LICM and DCE each run as one walk, and the printer appends into one
   buffer; the sweeping passes and the [Printf] printer they replaced
   are kept in the harness.  Generated programs go through every
   registry pipeline, under the campaign's default shape and under the
   big-region one. *)

module G = Fgv_fuzz.Generator

let onewalk_configs =
  [ ("default", G.default_config); ("big-region", G.big_region_config 40) ]

let generated config seed = G.generate ~config:(G.vary config ~seed) ~seed ()

(* One compile of [fd] under pipeline [name] whose licm and dce stages
   run [licm] and [dce]: per such stage, its name, the count it
   returned, the counters it moved ([pred.hashcons_*] included) and the
   IR it left, printed.  Each compile starts its own predicate
   generation. *)
let stage_trace ~licm ~dce name fd =
  let row = List.assoc name P.Pipelines.registry in
  let trace = ref [] in
  let pipeline f =
    List.iter
      (fun (stage, run) ->
        match stage with
        | "licm" | "dce" ->
          let pass = if stage = "licm" then licm else dce in
          let n, moved = Fgv_support.Telemetry.capture (fun () -> pass f) in
          trace := (stage, n, moved, Printer.to_string f) :: !trace
        | _ -> ignore (run f))
      row.P.Pipelines.stages
  in
  let outcome =
    match Fgv_frontend.Compile.fdecl pipeline fd with
    | Ok _ -> "ok"
    | Error e -> Fgv_frontend.Compile.message e
  in
  List.rev (("outcome", 0, [], outcome) :: !trace)

let prop_passes_match_reference (label, config) =
  QCheck2.Test.make
    ~name:("LICM and DCE match their sweeping references: " ^ label)
    ~count:25
    ~print:(fun seed -> G.render (generated config seed))
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let fd = generated config seed in
      List.for_all
        (fun name ->
          let reference =
            stage_trace ~licm:Licm_reference.run ~dce:Dce_reference.run name fd
          in
          let onewalk = stage_trace ~licm:P.Licm.run ~dce:P.Dce.run name fd in
          if List.length reference <> List.length onewalk then
            QCheck2.Test.fail_reportf "%s: %d traced stages vs %d" name
              (List.length reference) (List.length onewalk);
          List.iter2
            (fun (stage, n, moved, ir) (_, n', moved', ir') ->
              if (n, moved, ir) <> (n', moved', ir') then
                QCheck2.Test.fail_reportf
                  "%s, %s stage: count %d vs %d, counters %s vs %s, IR\n%s\nvs\n%s"
                  name stage n n'
                  (String.concat " "
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) moved))
                  (String.concat " "
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) moved'))
                  ir ir')
            reference onewalk;
          true)
        P.Pipelines.names)

let prop_printer_matches_reference (label, config) =
  QCheck2.Test.make
    ~name:("the printer matches its Printf reference: " ^ label)
    ~count:25
    ~print:(fun seed -> G.render (generated config seed))
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let fd = generated config seed in
      (* the first difference, reported once the compile is over: the
         compile path turns what a pipeline hook raises into an error *)
      let differs = ref None in
      let same stage f =
        let text = Printer.to_string f
        and reference = Printer_reference.to_string f in
        if text <> reference && !differs = None then
          differs := Some (stage, text, reference)
      in
      List.iter
        (fun name ->
          let pipeline f =
            same "lowering" f;
            P.Pipelines.run name ~on_pass:same f
          in
          ignore (Fgv_frontend.Compile.fdecl pipeline fd);
          match !differs with
          | Some (stage, text, reference) ->
            QCheck2.Test.fail_reportf "%s, after %s:\n%s\nvs the reference\n%s"
              name stage text reference
          | None -> ())
        P.Pipelines.names;
      true)

let suite =
  [
    Alcotest.test_case "pipelines preserve semantics" `Quick
      test_pipelines_preserve_semantics;
    Alcotest.test_case "pipelines preserve semantics (CFG)" `Quick
      test_pipelines_preserve_semantics_cfg;
    Alcotest.test_case "unroll across trip counts" `Quick test_unroll_trips;
    Alcotest.test_case "static SLP on restrict saxpy" `Quick
      test_slp_vectorizes_disjoint;
    Alcotest.test_case "versioning beats static SLP" `Quick
      test_versioning_beats_static_slp;
    Alcotest.test_case "classic loop vectorizer" `Quick test_loopvec_classic;
    Alcotest.test_case "classic versioning rejects floyd-warshall" `Quick
      test_loopvec_rejects_floyd;
    Alcotest.test_case "fine-grained versioning vectorizes floyd-warshall"
      `Quick test_sv_versioning_vectorizes_floyd;
    Alcotest.test_case "RLE removes dynamic loads" `Quick test_rle_removes_loads;
    Alcotest.test_case "RLE pipelines start with o3_novec's stages" `Quick
      test_rle_pipelines_start_with_o3_novec;
    Alcotest.test_case "figure work cells" `Quick test_figure_work_cells;
    Alcotest.test_case "DCE" `Quick test_dce_removes_dead;
    Alcotest.test_case "DCE removes a dead loop nest" `Quick
      test_dce_removes_dead_nest;
    Alcotest.test_case "constant folding" `Quick test_constfold;
    Alcotest.test_case "GVN" `Quick test_gvn_dedups;
    Alcotest.test_case "LICM" `Quick test_licm_hoists;
    Alcotest.test_case "LICM hoists if-converted invariants" `Quick
      test_licm_hoists_ifconverted_invariant;
    Alcotest.test_case "LICM needs ifconv to speculate variant predicates"
      `Quick test_licm_variant_predicate_needs_speculation;
    Alcotest.test_case "LICM keeps guarded division in-loop" `Quick
      test_licm_keeps_guarded_division;
    Alcotest.test_case "GVN float constant keys" `Quick test_gvn_float_keys;
    Alcotest.test_case "printer on every kind and predicate shape" `Quick
      test_printer_every_shape;
  ]
  @ List.concat_map
      (fun config ->
        [
          QCheck_alcotest.to_alcotest (prop_passes_match_reference config);
          QCheck_alcotest.to_alcotest (prop_printer_matches_reference config);
        ])
      onewalk_configs
