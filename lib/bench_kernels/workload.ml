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

(* A configuration: a {!Fgv_passes.Pipelines} name, and whether the
   source's restrict qualifiers are honoured. *)
type config = string * bool

(* --------------------------------------------------------------- runs *)

type run_result = {
  r_cost : float; (* architectural cost-model value *)
  r_counters : Interp.counters;
  r_branches : int; (* dynamic conditional branches (CFG interp) *)
  r_code_size : int; (* static CFG instruction count *)
  r_work : (string * int) list;
      (* counters the compile recorded: the passes' work (DESIGN §8) *)
  r_outcome : Interp.outcome;
}

(* A counter's value in a counter list, 0 if absent. *)
let count (counters : (string * int) list) name =
  Option.value ~default:0 (List.assoc_opt name counters)

exception Kernel_error of string * exn

(* [source] through the one compile path, its restrict qualifiers kept
   iff [restrict], optimized by [apply] and verified.  A program that
   does not compile is a harness bug, raised as [Failure] with the
   path's message.  The ablations pass hand-assembled pass sequences
   here; everything else compiles a configuration. *)
let compile_with ~restrict apply source : Ir.func =
  match Fgv_frontend.Compile.source ~restrict apply source with
  | Ok f -> f
  | Error e -> failwith (Fgv_frontend.Compile.message e)

let compile ((name, restrict) : config) k =
  compile_with ~restrict (P.Pipelines.run name) k.k_source

let fresh_mem k = Array.init k.k_heap (fun i -> Value.VFloat (k.k_init i))

(* Apply a pipeline to a kernel and run it, collecting everything. *)
let run_config ?(with_cfg = true) (cfgn : config) (k : kernel) : run_result =
  try
    let f, work = Fgv_support.Telemetry.capture (fun () -> compile cfgn k) in
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
  with e -> raise (Kernel_error (k.k_name ^ "/" ^ fst cfgn, e))

(* Check that every configuration computes the same result as the
   unoptimized program (the harness refuses to report wrong-code
   "speedups"). *)
let check_equivalence (k : kernel) (cfgs : config list) : unit =
  let observe f =
    Interp.observe (Interp.run f ~args:k.k_args ~mem:(fresh_mem k))
  in
  let ref_obs = observe (compile ("none", false) k) in
  List.iter
    (fun c ->
      match Interp.observation_diff ref_obs (observe (compile c k)) with
      | None -> ()
      | Some detail ->
        failwith
          (Printf.sprintf "%s/%s computes a different result! (%s)" k.k_name
             (fst c) detail))
    cfgs
