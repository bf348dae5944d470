(* Experiment harness: compiles benchmark kernels, applies optimization
   pipelines, runs the interpreters, and reports cost-model speedups and
   dynamic counters — the machinery behind the paper-shaped tables
   (Fig. 16, Fig. 19, Fig. 22). *)

open Fgv_pssa
module P = Fgv_passes

type kernel = {
  k_name : string;
  k_source : string; (* mini-C *)
  k_args : Value.t list; (* heap addresses and scalars *)
  k_heap : int; (* heap size in cells *)
  k_init : int -> float; (* initial value of each cell *)
  k_note : string; (* behavioural class, for the report *)
}

let mk ?(note = "") ~name ~source ~args ~heap ?(init = fun i ->
    Float.of_int ((i * 17 mod 31) - 11) *. 0.125) () =
  { k_name = name; k_source = source; k_args = args; k_heap = heap;
    k_init = init; k_note = note }

(* ------------------------------------------------------------- configs *)

type config = {
  c_name : string;
  c_restrict : bool; (* honour restrict qualifiers in the source *)
  c_apply : Ir.func -> unit;
}

let cfg ?(restrict = true) name apply =
  { c_name = name; c_restrict = restrict; c_apply = apply }

let base_novec ?(restrict = true) () =
  cfg ~restrict "O3-novec" (fun f -> P.Pipelines.o3_novec f)

let llvm_o3 ?(restrict = true) () = cfg ~restrict "O3" (fun f -> P.Pipelines.o3 f)

let sv ?(restrict = true) () = cfg ~restrict "SV" (fun f -> P.Pipelines.sv f)

let sv_versioning ?(restrict = true) () =
  cfg ~restrict "SV+V" (fun f -> P.Pipelines.sv_versioning f)

(* --------------------------------------------------------------- runs *)

type run_result = {
  r_cost : float; (* architectural cost-model value *)
  r_counters : Interp.counters;
  r_branches : int; (* dynamic conditional branches (CFG interp) *)
  r_code_size : int; (* static CFG instruction count *)
  r_work : (string * int) list;
      (* counter delta of the pipeline run: the passes' work (DESIGN §8) *)
  r_outcome : Interp.outcome;
}

(* A counter's value in a counter list, 0 if absent. *)
let count (counters : (string * int) list) name =
  Option.value ~default:0 (List.assoc_opt name counters)

exception Kernel_error of string * exn

let compile_for (cfgn : config) (k : kernel) : Ir.func =
  if cfgn.c_restrict then Fgv_frontend.Lower_ast.compile k.k_source
  else Fgv_frontend.Lower_ast.compile_no_restrict k.k_source

let fresh_mem k = Array.init k.k_heap (fun i -> Value.VFloat (k.k_init i))

(* Apply a pipeline to a kernel and run it, collecting everything. *)
let run_config ?(with_cfg = true) (cfgn : config) (k : kernel) : run_result =
  try
    let f = compile_for cfgn k in
    let (), work = Fgv_support.Telemetry.capture (fun () -> cfgn.c_apply f) in
    (match Verifier.verify_or_message f with
    | None -> ()
    | Some m -> failwith ("ill-formed after " ^ cfgn.c_name ^ ": " ^ m));
    let outcome = Interp.run f ~args:k.k_args ~mem:(fresh_mem k) in
    let branches, code_size =
      if with_cfg then begin
        let prog = Fgv_cfg.Lower.lower f in
        let c = Fgv_cfg.Cinterp.run prog ~args:k.k_args ~mem:(fresh_mem k) in
        (c.Fgv_cfg.Cinterp.counters.branches, Fgv_cfg.Cir.static_size prog)
      end
      else (0, 0)
    in
    {
      r_cost = Interp.cost outcome.counters;
      r_counters = outcome.counters;
      r_branches = branches;
      r_code_size = code_size;
      r_work = work;
      r_outcome = outcome;
    }
  with e -> raise (Kernel_error (k.k_name ^ "/" ^ cfgn.c_name, e))

(* Check that every configuration computes the same result as the
   unoptimized program (the harness refuses to report wrong-code
   "speedups"). *)
let check_equivalence (k : kernel) (cfgs : config list) : unit =
  let reference = Fgv_frontend.Lower_ast.compile_no_restrict k.k_source in
  let observe f =
    Interp.observe (Interp.run f ~args:k.k_args ~mem:(fresh_mem k))
  in
  let ref_obs = observe reference in
  List.iter
    (fun c ->
      let f = compile_for c k in
      c.c_apply f;
      match Interp.observation_diff ref_obs (observe f) with
      | None -> ()
      | Some detail ->
        failwith
          (Printf.sprintf "%s/%s computes a different result! (%s)" k.k_name
             c.c_name detail))
    cfgs
