(* Multi-oracle equivalence checker for the differential-fuzzing
   subsystem.

   One generated program is judged by three oracles:

   1. the PSSA reference interpreter on the *untransformed* function
      (ground truth), run once per layout and shared by every pipeline;
   2. the PSSA interpreter on the function after a full optimization
      pipeline;
   3. the CFG interpreter ({!Fgv_cfg.Cinterp}) on the transformed
      function lowered through {!Fgv_cfg.Lower} — which cross-checks the
      CFG lowering itself, not just the pipeline;
   4. (opt-in, [~native:true]) the native C backend: the CFG program is
      lowered to checked C ({!Fgv_backend.Emit.checked}), compiled with
      the system toolchain, and executed as a separate process — which
      cross-checks the C lowering and the pinned {!Fgv_pssa.Intsem}
      semantics against real hardware arithmetic.  One compile serves
      every binding layout (arguments travel on argv).  When no C
      compiler is on PATH the native oracle silently stands down, so
      campaigns behave identically minus the extra coverage.

   All three must agree on the observable behaviour — final memory plus
   the ordered impure-call trace — under *every* binding layout the
   generator's binding generator produces (disjoint, identical,
   partially overlapping bases).  Additionally {!Fgv_pssa.Verifier} runs
   after every individual pass (via the pipelines' [?on_pass] hook), so
   an IR invariant broken by one transform is blamed on that transform,
   not discovered at the end of the pipeline.

   Every run is classified and compared by the one differential
   contract in {!Fgv_pssa.Interp} ([classify], [runs_agree]): both sides
   raising {!Fgv_pssa.Value.Undef_access} on the same operation (or both
   trapping, or both running out of fuel) counts as agreement — the
   transformed program is allowed to fault exactly like the original —
   while a trap on one side only is a mismatch. *)

open Fgv_pssa
open Fgv_frontend
module P = Fgv_passes
module Tm = Fgv_support.Telemetry
module N = Fgv_backend.Native

(* Raised out of the [?on_pass] hook so a broken invariant names the
   offending pass. *)
exception Pass_broke_ir of { pass : string; message : string }

type mismatch = {
  mm_pipeline : string;
  mm_kind : string;
      (** "verifier" | "pssa-diff" | "cfg-diff" | "pipeline-crash"
          | "cfg-lower-crash" | "native-compile-crash" | "native-crash"
          | "native-diff" *)
  mm_pass : string option;  (** for "verifier": the offending pass *)
  mm_binding : int list;  (** pointer bases; [] when not binding-specific *)
  mm_detail : string;
}

let mismatch_to_string m =
  Printf.sprintf "[%s/%s%s]%s %s" m.mm_pipeline m.mm_kind
    (match m.mm_pass with Some p -> " after " ^ p | None -> "")
    (match m.mm_binding with
    | [] -> ""
    | bs -> " bases=" ^ String.concat "," (List.map string_of_int bs))
    m.mm_detail

(* ----------------------------------------------------------- pipelines *)

(* Every pipeline in {!Fgv_passes.Pipelines.registry}, under the same
   names the [fgvc] driver and the compile service use — the oracle
   sweep is exactly the shared registry (including "sv+v-nopromo", which
   pins condition promotion off so both promotion settings are fuzzed),
   with the per-pass verifier hook made mandatory. *)
let pipelines :
    (string * (on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit)) list =
  List.map
    (fun (name, apply) ->
      (name, fun ~on_pass f -> apply ?on_pass:(Some on_pass) f))
    P.Pipelines.registry

let pipeline_names = List.map fst pipelines

let verify_after_each_pass pass f =
  match Verifier.verify_or_message f with
  | None -> ()
  | Some message -> raise (Pass_broke_ir { pass; message })

(* ----------------------------------------------------------- execution *)

(* Fuel low enough that a pathological program cannot stall a campaign:
   generated loops run at most a few hundred iterations. *)
let fuel = 2_000_000

let run_pssa config (f : Ir.func) (layout : int list) : Interp.run_class =
  Tm.incr "fuzz.oracle_runs";
  Interp.classify (fun () ->
      Interp.observe
        (Interp.run ~fuel f
           ~args:(Generator.args_for config layout)
           ~mem:(Generator.fresh_mem config)))

let run_cfg config (prog : Fgv_cfg.Cir.prog) (layout : int list) :
    Interp.run_class =
  Tm.incr "fuzz.oracle_runs";
  Interp.classify (fun () ->
      Fgv_cfg.Cinterp.observe
        (Fgv_cfg.Cinterp.run ~fuel prog
           ~args:(Generator.args_for config layout)
           ~mem:(Generator.fresh_mem config)))

(* The reference's run class under [layout], from the memo [runs] or run
   now and added to it.  The class depends only on the program and the
   layout, so one memo serves every pipeline and oracle of a [check]
   call; living in that call, it is per program and per domain. *)
let reference_run runs config (reference : Ir.func) layout =
  match List.assoc_opt layout !runs with
  | Some c -> c
  | None ->
    let c = run_pssa config reference layout in
    runs := (layout, c) :: !runs;
    c

(* --------------------------------------------------------- the checker *)

(* A counted mismatch of [kind] in pipeline [name]. *)
let mismatch ?pass ?(binding = []) name kind detail =
  Tm.incr "fuzz.mismatches";
  Some
    {
      mm_pipeline = name;
      mm_kind = kind;
      mm_pass = pass;
      mm_binding = binding;
      mm_detail = detail;
    }

(* The first layout under which [subject]'s run disagrees with the
   [reference] run: an ["<oracle>-diff"] mismatch, or an
   ["<oracle>-crash"] one when the subject could not run at all. *)
let first_disagreement ~layouts ~name ~oracle
    (reference : int list -> Interp.run_class)
    (subject : int list -> (Interp.run_class, string) result) =
  List.find_map
    (fun layout ->
      let a = reference layout in
      match subject layout with
      | Error e -> mismatch ~binding:layout name (oracle ^ "-crash") e
      | Ok b -> (
        match Interp.runs_agree a b with
        | None -> None
        | Some detail ->
          mismatch ~binding:layout name (oracle ^ "-diff") detail))
    layouts

(* Compare two PSSA functions observationally over the given layouts
   (used directly by property tests that transform [subject] piecemeal,
   e.g. through the versioning API rather than a whole pipeline). *)
let compare_funcs ~(config : Generator.config) ~layouts ~(label : string)
    (reference : Ir.func) (subject : Ir.func) : mismatch option =
  first_disagreement ~layouts ~name:label ~oracle:"pssa"
    (run_pssa config reference)
    (fun layout -> Ok (run_pssa config subject layout))

(* Fourth oracle: compile the CFG program to checked C once, run it
   natively under every layout, and compare against the reference
   runs. *)
let check_native ~(config : Generator.config) ~layouts ~name reference
    (prog : Fgv_cfg.Cir.prog) : mismatch option =
  match N.compile_checked ~fuel prog ~mem:(Generator.fresh_mem config) with
  | Error e -> mismatch name "native-compile-crash" e
  | Ok compiled ->
    let result =
      first_disagreement ~layouts ~name ~oracle:"native" reference
        (fun layout ->
          Tm.incr "fuzz.native_runs";
          N.run_checked compiled ~args:(Generator.args_for config layout))
    in
    N.release compiled;
    result

(* Run one pipeline over a fresh lowering of [fd] and check the
   oracles under every layout against the reference runs memoized in
   [reference_runs] (by default, a memo of this call's own). *)
let check_pipeline ?(native = false) ?(reference_runs = ref [])
    ~(config : Generator.config) (fd : Fgv_frontend.Ast.fdecl) (name : string)
    : mismatch option =
  let runner =
    match List.assoc_opt name pipelines with
    | Some r -> r
    | None -> invalid_arg ("Oracle.check_pipeline: unknown pipeline " ^ name)
  in
  match Lower_ast.lower_fdecl fd with
  | exception Lower_ast.Error _ ->
    Tm.incr "fuzz.rejected";
    None
  | reference -> (
    let reference = reference_run reference_runs config reference in
    let subject = Lower_ast.lower_fdecl fd in
    let layouts = Generator.layouts_for config in
    match runner ~on_pass:verify_after_each_pass subject with
    | exception Pass_broke_ir { pass; message } ->
      mismatch ~pass name "verifier" message
    | exception e -> mismatch name "pipeline-crash" (Printexc.to_string e)
    | () -> (
      match
        first_disagreement ~layouts ~name ~oracle:"pssa" reference
          (fun layout -> Ok (run_pssa config subject layout))
      with
      | Some m -> Some m
      | None -> (
        (* third oracle: CFG lowering of the transformed function *)
        match Fgv_cfg.Lower.lower subject with
        | exception e -> mismatch name "cfg-lower-crash" (Printexc.to_string e)
        | prog -> (
          match
            first_disagreement ~layouts ~name ~oracle:"cfg" reference
              (fun layout -> Ok (run_cfg config prog layout))
          with
          | Some m -> Some m
          | None ->
            if native && N.available () then
              check_native ~config ~layouts ~name reference prog
            else None))))

(* Check one program against every requested pipeline; first mismatch
   wins.  The reference runs once per layout, not once per pipeline and
   oracle. *)
let check ?(native = false) ?(pipelines = pipeline_names)
    ~(config : Generator.config) (fd : Fgv_frontend.Ast.fdecl) :
    mismatch option =
  Tm.incr "fuzz.programs";
  let reference_runs = ref [] in
  List.find_map
    (fun name -> check_pipeline ~native ~reference_runs ~config fd name)
    pipelines
