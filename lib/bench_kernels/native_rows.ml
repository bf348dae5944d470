(* Native wall-clock rows: the bench lane that runs kernels for real.

   Every other figure in the harness reports *cost-model* speedups —
   architectural cost ratios computed by the interpreter.  This lane
   lowers each kernel's baseline and versioned pipelines through the
   native backend ({!Fgv_backend.Emit.fast}), compiles them with the
   system C compiler at -O2 -march=native, and measures nanoseconds per
   kernel execution with a calibrated monotonic-clock loop.  The rows
   put the measured speedup next to the model's prediction, and each
   native binary's final-memory checksum is validated against the CFG
   interpreter (relative tolerance 1e-6: -march=native may contract
   FMAs, so bit-exactness is deliberately not demanded here — the
   checked backend, not this one, owns exactness).

   Figure pairing mirrors the paper lanes:
   - fig19: TSVC, -O3 model vs. SV+versioning
   - fig16: PolyBench without restrict, -O3 vs. SV+versioning
   - fig22: SPECfp, redundant-load-elimination baseline vs. pipeline *)

module W = Workload
module P = Fgv_passes
module N = Fgv_backend.Native
module Pool = Fgv_support.Pool
module Stats = Fgv_support.Stats

let available = N.available

type row = {
  nr_figure : string; (* "fig19" | "fig16" | "fig22" *)
  nr_name : string;
  nr_model_speedup : float; (* cost-model prediction, baseline/versioned *)
  nr_checksum_ok : bool; (* both binaries agree with the interpreter *)
  nr_static_ns : float; (* measured ns/run, baseline pipeline *)
  nr_versioned_ns : float; (* measured ns/run, versioned pipeline *)
  nr_static_reps : int;
  nr_versioned_reps : int;
}

let native_speedup (r : row) : float =
  if r.nr_versioned_ns <= 0.0 then 1.0
  else r.nr_static_ns /. r.nr_versioned_ns

(* Compile [k] under [cfgn], run it natively in fast mode, and check the
   final-memory checksum against the CFG interpreter's. *)
let fast_run (cfgn : W.config) (k : W.kernel) :
    (float * int * bool, string) result =
  let prog = Fgv_cfg.Lower.lower (W.compile cfgn k) in
  let iout = Fgv_cfg.Cinterp.run prog ~args:k.W.k_args ~mem:(W.fresh_mem k) in
  let want = N.checksum_of_mem iout.Fgv_cfg.Cinterp.memory in
  match N.run_fast prog ~args:k.W.k_args ~mem:(W.fresh_mem k) with
  | Error e -> Error e
  | Ok fr ->
    let err =
      if want = 0.0 then Float.abs fr.N.nf_checksum
      else Float.abs ((fr.N.nf_checksum -. want) /. want)
    in
    Ok (fr.N.nf_ns, fr.N.nf_reps, err <= 1e-6)

let mk_row ~figure ~(base : W.config) ~(vers : W.config) (k : W.kernel) : row =
  let model =
    let b = W.run_config ~with_cfg:false base k in
    let v = W.run_config ~with_cfg:false vers k in
    b.W.r_cost /. v.W.r_cost
  in
  match (fast_run base k, fast_run vers k) with
  | Ok (bns, brep, bok), Ok (vns, vrep, vok) ->
    {
      nr_figure = figure;
      nr_name = k.W.k_name;
      nr_model_speedup = model;
      nr_checksum_ok = bok && vok;
      nr_static_ns = bns;
      nr_versioned_ns = vns;
      nr_static_reps = brep;
      nr_versioned_reps = vrep;
    }
  | Error e, _ | _, Error e ->
    raise (W.Kernel_error (k.W.k_name ^ "/" ^ figure ^ " (native)", Failure e))

let specs () =
  List.map (fun k -> ("fig19", ("o3", true), ("sv+v", true), k)) Tsvc.kernels
  @ List.map
      (fun k -> ("fig16", ("o3", false), ("sv+v", false), k))
      Polybench.kernels
  @ List.map
      (fun k -> ("fig22", ("rle-baseline", true), ("rle", true), k))
      Specfp.kernels

(* [?kernels] filters by kernel name (all when omitted) — CI smoke runs
   a handful of rows, the full lane runs everything. *)
let rows ?kernels ?(jobs = 1) () : row list =
  let keep (_, _, _, (k : W.kernel)) =
    match kernels with None -> true | Some names -> List.mem k.W.k_name names
  in
  Pool.map ~jobs
    (fun (figure, base, vers, k) -> mk_row ~figure ~base ~vers k)
    (List.filter keep (specs ()))

let table_of_rows (rows : row list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-16s %10s %10s %12s %12s %4s\n" "figure" "kernel"
       "model" "native" "static ns" "version ns" "sum");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-16s %9.2fx %9.2fx %12.1f %12.1f %4s\n"
           r.nr_figure r.nr_name r.nr_model_speedup (native_speedup r)
           r.nr_static_ns r.nr_versioned_ns
           (if r.nr_checksum_ok then "ok" else "BAD")))
    rows;
  let geo fig =
    let sel = List.filter (fun r -> r.nr_figure = fig) rows in
    if sel = [] then ()
    else
      Buffer.add_string buf
        (Printf.sprintf "%s geomean: model %.2fx native %.2fx\n" fig
           (Stats.geomean (List.map (fun r -> r.nr_model_speedup) sel))
           (Stats.geomean (List.map native_speedup sel)))
  in
  List.iter geo [ "fig19"; "fig16"; "fig22" ];
  Buffer.contents buf
