(* Property tests on randomly generated programs, now driven by the
   differential-fuzzing subsystem (lib/fuzz): the versioning framework
   and every pipeline must preserve observational behaviour (final
   memory + impure call trace) on seeded structured kernels over 2-4
   possibly-aliasing pointers, evaluated under the binding generator's
   disjoint, identical, and partially overlapping layouts.

   QCheck2 supplies iteration counts and seeds; the program grammar,
   binding layouts and oracles all live in {!Fgv_fuzz}, so these
   properties and the [fgvc --fuzz] campaigns exercise the exact same
   machinery. *)

open Fgv_pssa
module V = Fgv_versioning
module F = Fgv_fuzz
module G = F.Generator
module O = F.Oracle

(* A generated case is a pure function of its seed; QCheck2 generates
   (and shrinks over) seeds.  Programs here are slightly smaller than
   the campaign default so 800-count properties stay quick. *)
let base_config = { G.default_config with G.size = 10 }

let case_of_seed ~restrict seed =
  let cfg = { (G.vary base_config ~seed) with G.restrict_ptrs = restrict } in
  (cfg, G.generate ~config:cfg ~seed ())

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

let print_seed ~restrict seed =
  let _, fd = case_of_seed ~restrict seed in
  Printf.sprintf "seed %d:\n%s" seed (G.render fd)

(* A pipeline property: the multi-oracle checker (per-pass verifier,
   PSSA diff under every layout, CFG lowering diff) finds no mismatch. *)
let pipeline_prop ?(count = 800) ?(restrict = false) name pipeline =
  QCheck2.Test.make ~name ~print:(print_seed ~restrict) ~count gen_seed
    (fun seed ->
      let cfg, fd = case_of_seed ~restrict seed in
      match O.check ~pipelines:[ pipeline ] ~config:cfg fd with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s" (O.mismatch_to_string m))

(* Property 1: requesting independence of the top-level stores and
   materializing the plan preserves behaviour.  This transforms the
   function piecemeal through the versioning API, so it uses the
   oracle's function-level comparison rather than a whole pipeline. *)

let top_stores (f : Ir.func) =
  List.filter_map
    (fun item ->
      match item with
      | Ir.I v -> (
        match (Ir.inst f v).Ir.kind with
        | Ir.Store _ -> Some (Ir.NI v)
        | _ -> None)
      | Ir.L _ -> None)
    f.Ir.fbody

let prop_versioning_preserves =
  QCheck2.Test.make ~name:"versioning random store groups preserves behaviour"
    ~print:(print_seed ~restrict:false) ~count:400 gen_seed (fun seed ->
      let cfg, fd = case_of_seed ~restrict:false seed in
      let reference = Fgv_frontend.Lower_ast.lower_fdecl fd in
      let f = Fgv_frontend.Lower_ast.lower_fdecl fd in
      Verifier.verify reference;
      let stores = top_stores f in
      if List.length stores < 2 then true
      else begin
        let session = V.Api.create f Ir.Rtop in
        (match V.Api.request_independence session stores with
        | Some _ -> ignore (V.Api.materialize session)
        | None -> ());
        match Verifier.verify_or_message f with
        | Some msg -> QCheck2.Test.fail_reportf "ill-formed: %s" msg
        | None -> (
          match
            O.compare_funcs ~config:cfg ~layouts:(G.layouts_for cfg)
              ~label:"versioning" reference f
          with
          | None -> true
          | Some m -> QCheck2.Test.fail_reportf "%s" (O.mismatch_to_string m))
      end)

(* Property 2: the full pipelines preserve behaviour on random programs. *)
let prop_o3 = pipeline_prop "o3 pipeline on random programs" "o3"

let prop_svv = pipeline_prop "sv+versioning pipeline on random programs" "sv+v"

let prop_rle = pipeline_prop "rle pipeline on random programs" "rle"

(* The wish-spec clients: store forwarding/elimination, loop
   distribution, and the combined pipeline that stacks both under SLP.
   Oracle.check gives memory + impure-trace equivalence against the
   unoptimized baseline across random layouts, and runs the Verifier on
   every per-pass intermediate. *)
let prop_dse = pipeline_prop ~count:200 "dse pipeline on random programs" "dse"

let prop_distribute =
  pipeline_prop ~count:200 "distribute pipeline on random programs" "distribute"

let prop_combined =
  pipeline_prop ~count:200 "combined clients pipeline on random programs"
    "combined"

(* Two generated programs whose [combined] compile once put an
   if-converted store's [old] load behind a versioning phi that is
   undefined when the store's guard fails (ifconv now refuses such a
   loop); random QCheck seeds draw such a program rarely. *)
let test_combined_pinned_seeds () =
  List.iter
    (fun seed ->
      let cfg, fd = case_of_seed ~restrict:false seed in
      match O.check ~pipelines:[ "combined" ] ~config:cfg fd with
      | None -> ()
      | Some m ->
        Alcotest.failf "seed %d: %s\n%s" seed (O.mismatch_to_string m)
          (G.render fd))
    [ 875701; 891827 ]

(* Property 2b: behaviour preservation must hold regardless of the
   condition-promotion setting — promotion only widens checks (more
   fallback executions), never changes what either version computes. *)
let prop_promotion_on =
  pipeline_prop "sv+versioning with promotion on" "sv+v"

let prop_promotion_off =
  pipeline_prop "sv+versioning with promotion off" "sv+v-nopromo"

(* The same random programs with [restrict]-qualified pointers.  Binding
   restrict pointers to overlapping regions is undefined behaviour, so
   the binding generator evaluates ONLY disjoint layouts for these. *)
let prop_restrict_svv =
  pipeline_prop ~count:400 ~restrict:true
    "sv+versioning on restrict-qualified programs" "sv+v"

let prop_restrict_rle =
  pipeline_prop ~count:400 ~restrict:true
    "rle pipeline on restrict-qualified programs" "rle"

(* Property 3: CFG lowering of the optimized program still agrees.
   (Oracle.check's third oracle lowers the transformed function to the
   CFG and diffs it against the PSSA reference under every layout.) *)
let prop_cfg =
  pipeline_prop ~count:120 "CFG lowering of versioned random programs" "sv+v"

(* Property 4: the native backend agrees too.  100 random programs (50
   seeds x the default sv+v and the combined clients pipeline) run
   through the full oracle with the native differential enabled: each
   optimized program is lowered to checked-mode C, compiled with the
   system toolchain, and its class + final memory + impure-call trace
   diffed against the PSSA reference under every aliasing layout.  This
   is a plain Alcotest case, not QCheck: it must be able to skip with a
   clear message on machines without a C compiler. *)
let test_native_differential () =
  if not (Fgv_backend.Native.available ()) then begin
    print_endline
      "skipping native differential: no C compiler on PATH (set FGV_CC)";
    Alcotest.skip ()
  end;
  List.iter
    (fun pipeline ->
      for seed = 0 to 49 do
        let cfg, fd = case_of_seed ~restrict:false seed in
        match O.check ~native:true ~pipelines:[ pipeline ] ~config:cfg fd with
        | None -> ()
        | Some m ->
          Alcotest.failf "seed %d / %s: %s\n%s" seed pipeline
            (O.mismatch_to_string m) (G.render fd)
      done)
    [ "sv+v"; "combined" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_versioning_preserves;
    QCheck_alcotest.to_alcotest prop_o3;
    QCheck_alcotest.to_alcotest prop_svv;
    QCheck_alcotest.to_alcotest prop_rle;
    QCheck_alcotest.to_alcotest prop_dse;
    QCheck_alcotest.to_alcotest prop_distribute;
    QCheck_alcotest.to_alcotest prop_combined;
    Alcotest.test_case "combined on pinned ifconv seeds" `Quick
      test_combined_pinned_seeds;
    QCheck_alcotest.to_alcotest prop_promotion_on;
    QCheck_alcotest.to_alcotest prop_promotion_off;
    QCheck_alcotest.to_alcotest prop_restrict_svv;
    QCheck_alcotest.to_alcotest prop_restrict_rle;
    QCheck_alcotest.to_alcotest prop_cfg;
    Alcotest.test_case "native differential on random programs" `Slow
      test_native_differential;
  ]
