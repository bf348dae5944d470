(* The paper's experiments (SV), regenerated over the simulator:

   - Fig. 19: TSVC speedups over the LLVM-style -O3 baseline;
   - Fig. 16: PolyBench speedups over -O3 without vectorization, with
     and without restrict;
   - Fig. 22: versioned redundant load elimination on the SPEC FP
     surrogates (speedup, loads eliminated, branch increase, extra LICM
     hoists, extra GVN deletions, code size);
   - the s258 speculation study (SV-A2);
   - ablations: min-cut vs naive all-conditional-edges cut, and the
     condition optimizations of SIV-A.

   Row loops take [?jobs] and fan kernels out across a
   {!Fgv_support.Pool}: each row compiles, optimizes and interprets its
   kernel under several configurations on a private [Ir.func], so rows
   are independent and the tables they produce are identical at any job
   count (the cost model is deterministic; pool results come back in
   kernel order).  Telemetry recorded by the rows merges back into the
   caller's context at the join, so the per-figure counter deltas that
   [bench/main.exe --json] captures are job-count-independent too. *)

open Fgv_pssa
module P = Fgv_passes
module W = Workload
module Table = Fgv_support.Table
module Stats = Fgv_support.Stats
module Pool = Fgv_support.Pool

let pct x = Printf.sprintf "%.1f%%" (x *. 100.0)
let sp x = Printf.sprintf "%.2fx" x

(* ------------------------------------------------------------ Fig. 19 *)

type tsvc_row = {
  t_name : string;
  t_sv : float; (* speedup over O3 *)
  t_svv : float;
  t_newly_vectorized : bool; (* vector code only with versioning *)
}

let tsvc_rows ?(check = true) ?(jobs = 1) () : tsvc_row list =
  Pool.map ~jobs
    (fun k ->
      let c name = (name, true) in
      let base = W.run_config ~with_cfg:false (c "o3") k in
      let sv = W.run_config ~with_cfg:false (c "sv") k in
      let svv = W.run_config ~with_cfg:false (c "sv+v") k in
      if check then
        W.check_equivalence k (List.map c [ "o3-novec"; "o3"; "sv"; "sv+v" ]);
      let vec r =
        r.W.r_counters.Interp.vector_stores + r.W.r_counters.Interp.vector_loads > 0
      in
      {
        t_name = k.W.k_name;
        t_sv = base.W.r_cost /. sv.W.r_cost;
        t_svv = base.W.r_cost /. svv.W.r_cost;
        t_newly_vectorized = vec svv && not (vec sv);
      })
    Tsvc.kernels

let fig19_of_rows (rows : tsvc_row list) : string =
  let t = Table.create [ "TSVC loop"; "SV"; "SV+versioning"; "newly vectorized" ] in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.t_name; sp r.t_sv; sp r.t_svv; (if r.t_newly_vectorized then "yes" else "") ])
    rows;
  Table.add_sep t;
  let geo f = Stats.geomean (List.map f rows) in
  Table.add_row t
    [ "geomean"; sp (geo (fun r -> r.t_sv)); sp (geo (fun r -> r.t_svv)); "" ];
  let newly = List.length (List.filter (fun r -> r.t_newly_vectorized) rows) in
  "Fig. 19 — TSVC speedup over LLVM-style -O3 (higher is better)\n"
  ^ Table.render t
  ^ Printf.sprintf
      "versioning newly vectorizes %d loops; paper: SV 1.09x, SV+V 1.17x, 13 \
       loops\n"
      newly

(* ------------------------------------------------------------ Fig. 16 *)

type poly_row = {
  p_name : string;
  p_o3 : float; (* over O3-novec, restrict per setting *)
  p_sv : float;
  p_svv : float;
  p_newly : bool;
}

let polybench_rows ?(check = true) ?(jobs = 1) ~restrict () : poly_row list =
  Pool.map ~jobs
    (fun k ->
      let c name = (name, restrict) in
      let base = W.run_config ~with_cfg:false (c "o3-novec") k in
      let o3 = W.run_config ~with_cfg:false (c "o3") k in
      let sv = W.run_config ~with_cfg:false (c "sv") k in
      let svv = W.run_config ~with_cfg:false (c "sv+v") k in
      if check then
        W.check_equivalence k (List.map c [ "o3-novec"; "o3"; "sv"; "sv+v" ]);
      let vec r =
        r.W.r_counters.Interp.vector_stores + r.W.r_counters.Interp.vector_loads > 0
      in
      {
        p_name = k.W.k_name;
        p_o3 = base.W.r_cost /. o3.W.r_cost;
        p_sv = base.W.r_cost /. sv.W.r_cost;
        p_svv = base.W.r_cost /. svv.W.r_cost;
        p_newly = vec svv && not (vec sv);
      })
    Polybench.kernels

let fig16_of_rows ~restrict (rows : poly_row list) : string =
  let t =
    Table.create [ "PolyBench kernel"; "O3"; "SV"; "SV+versioning"; "newly vec." ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.p_name; sp r.p_o3; sp r.p_sv; sp r.p_svv;
          (if r.p_newly then "yes" else "") ])
    rows;
  Table.add_sep t;
  let geo f = Stats.geomean (List.map f rows) in
  Table.add_row t
    [ "geomean"; sp (geo (fun r -> r.p_o3)); sp (geo (fun r -> r.p_sv));
      sp (geo (fun r -> r.p_svv)); "" ];
  Printf.sprintf
    "Fig. 16 — PolyBench speedup over -O3-without-vectorization (restrict %s)\n"
    (if restrict then "ON" else "OFF")
  ^ Table.render t

(* ------------------------------------------------------------ Fig. 22 *)

type rle_row = {
  f_name : string;
  f_speedup : float;
  f_loads_eliminated : float; (* fraction of dynamic loads *)
  f_branches_increase : float;
  f_licm_extra : float;
  f_gvn_extra : float;
  f_size_increase : float;
}

(* Pass work is read from counters (DESIGN §8): a compile's work is the
   counters it recorded ([r_work]), and a phase's work is the difference
   of two compiles' over a shared prefix.  Both RLE pipelines begin with
   exactly "o3-novec"'s stages, so the LICM/GVN work they do after that
   prefix — the paper's "more work after RLE" — is their work minus an
   "o3-novec" compile's on the same kernel.  That run is isolated and its
   shard never merged, so the figure's own counters do not see it. *)
let prefix_work (k : W.kernel) : (string * int) list =
  let (), shard =
    Fgv_support.Obs.isolated (fun () -> ignore (W.compile ("o3-novec", true) k))
  in
  Fgv_support.Obs.counters shard

let rle_rows ?(check = true) ?(jobs = 1) () : rle_row list =
  Pool.map ~jobs
    (fun k ->
      let base = W.run_config ("rle-baseline", true) k in
      let rle = W.run_config ("rle", true) k in
      if check then
        W.check_equivalence k [ ("rle-baseline", true); ("rle", true) ];
      let frac a b = if b = 0 then 0.0 else float_of_int (a - b) /. float_of_int a in
      let growth a b = if a = 0 then 0.0 else float_of_int (b - a) /. float_of_int a in
      let extra a b = if a = 0 then float_of_int b else growth a b in
      let prefix = prefix_work k in
      let after_prefix name r = W.count r.W.r_work name - W.count prefix name in
      let extra_work name =
        extra (after_prefix name base) (after_prefix name rle)
      in
      {
        f_name = k.W.k_name;
        f_speedup = base.W.r_cost /. rle.W.r_cost;
        f_loads_eliminated =
          frac base.W.r_counters.Interp.loads rle.W.r_counters.Interp.loads;
        f_branches_increase = growth base.W.r_branches rle.W.r_branches;
        f_licm_extra = extra_work "pass.licm.hoisted";
        f_gvn_extra = extra_work "pass.gvn.deleted";
        f_size_increase = growth base.W.r_code_size rle.W.r_code_size;
      })
    Specfp.kernels

let fig22_of_rows (rows : rle_row list) : string =
  let t =
    Table.create
      [ "benchmark"; "speedup"; "loads elim."; "branches+"; "LICM+"; "GVN+";
        "size+" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.f_name;
          Printf.sprintf "%+.1f%%" ((r.f_speedup -. 1.0) *. 100.0);
          pct r.f_loads_eliminated; pct r.f_branches_increase;
          pct r.f_licm_extra; pct r.f_gvn_extra; pct r.f_size_increase ])
    rows;
  Table.add_sep t;
  let geo f = Stats.geomean (List.map (fun r -> Float.max 0.01 (1.0 +. f r)) rows) -. 1.0 in
  Table.add_row t
    [ "geomean";
      Printf.sprintf "%+.1f%%" ((Stats.geomean (List.map (fun r -> r.f_speedup) rows) -. 1.0) *. 100.0);
      pct (geo (fun r -> r.f_loads_eliminated));
      pct (geo (fun r -> r.f_branches_increase));
      pct (geo (fun r -> r.f_licm_extra));
      pct (geo (fun r -> r.f_gvn_extra));
      pct (geo (fun r -> r.f_size_increase)) ];
  "Fig. 22 — versioned redundant load elimination on SPEC FP surrogates\n"
  ^ Table.render t
  ^ "paper: speedup geomean +1.2% (lbm +6.4%, blender +4.7%), 4.8% loads\n\
     eliminated, 5.5% more branches, 6.4% more LICM hoists, 8.5% more GVN\n\
     deletions, 2.3% code growth\n"

(* ----------------------------------- DSE / distribution clients figure *)

type client_row = {
  v_client : string;
  v_kernel : string;
  v_speedup : float; (* static-client cost / versioned-client cost *)
  v_newly_vectorized : bool;
  v_forwarded : int;
  v_killed : int;
  v_pieces : int;
}

let tsvc_kernel name = List.find (fun k -> k.W.k_name = name) Tsvc.kernels

(* Each client pipeline against its "-static" dual. *)
let client_specs =
  [
    ("dse", "s222");
    ("distribute", "s222");
    ("distribute", "s2251");
    ("combined", "s222");
    ("combined", "s2251");
  ]

let clients_rows ?(check = true) ?(jobs = 1) () : client_row list =
  Pool.map ~jobs
    (fun (client, kname) ->
      let k = tsvc_kernel kname in
      (* the wish-spec clients need conditional dependences to version,
         so both compile without restrict: statically every array may
         alias, and only versioning recovers the transformation *)
      let c name = (name, false) in
      let static = W.run_config (c (client ^ "-static")) k in
      let versioned = W.run_config (c client) k in
      if check then
        W.check_equivalence k
          (List.map c [ "o3-novec"; client ^ "-static"; client ]);
      let vec r =
        r.W.r_counters.Interp.vector_stores
        + r.W.r_counters.Interp.vector_loads
        > 0
      in
      {
        v_client = client;
        v_kernel = kname;
        v_speedup = static.W.r_cost /. versioned.W.r_cost;
        v_newly_vectorized = vec versioned && not (vec static);
        v_forwarded = W.count versioned.W.r_work "pass.dse.forwarded";
        v_killed = W.count versioned.W.r_work "pass.dse.killed";
        v_pieces = W.count versioned.W.r_work "pass.distribute.pieces";
      })
    client_specs

let clients_of_rows (rows : client_row list) : string =
  let t =
    Table.create
      [ "client"; "kernel"; "vs static"; "newly vec."; "forwarded"; "killed";
        "pieces" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.v_client; r.v_kernel; sp r.v_speedup;
          (if r.v_newly_vectorized then "yes" else "");
          string_of_int r.v_forwarded; string_of_int r.v_killed;
          string_of_int r.v_pieces ])
    rows;
  "Versioned DSE / loop distribution vs their static counterparts\n"
  ^ Table.render t
  ^ "versioning recovers what restrict-less static analysis cannot: dead\n\
     stores behind may-aliasing recurrences, and distribution that frees\n\
     the clean sub-loop for vectorization (s222/s2251 shapes)\n"

(* ------------------------------------------- s258 speculation (SV-A2) *)

let s258_src params =
  Printf.sprintf
    {|
  kernel s258(%s) {
    float s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
      if (a[i] > 0.0) { s = d[i] * d[i]; }
      b[i] = s * c[i] + d[i];
      e[i] = (s + 1.0) * aa[i];
    }
  }|}
    params

let s258_speculation ?(jobs = 1) () : string =
  let len = 64 in
  let mk_kernel ~restrict ~positive_frac name =
    let params =
      if restrict then
        "float* restrict a, float* restrict b, float* restrict c, float* \
         restrict d, float* restrict e, float* restrict aa, int n"
      else "float* a, float* b, float* c, float* d, float* e, float* aa, int n"
    in
    let init i =
      (* the a array controls the branch; choose sign by fraction *)
      if i < len then
        if i * 100 mod len * 100 / len < int_of_float (positive_frac *. 100.0)
        then 1.0
        else -1.0
      else Float.of_int ((i * 17 mod 31) - 11) *. 0.125
    in
    let init i = if i < len then (if (i * 131 mod 100) < int_of_float (positive_frac *. 100.0) then 1.0 else -1.0) else init i in
    {
      W.k_name = name;
      k_source = s258_src params;
      k_args = List.map (fun x -> Value.VInt x) [ 0; len; 2 * len; 3 * len; 4 * len; 5 * len; len ];
      k_heap = 6 * len;
      k_init = init;
      k_note = "";
    }
  in
  let t = Table.create [ "configuration"; "SV"; "SV+versioning" ] in
  let rows =
    Pool.map ~jobs
      (fun (label, restrict, frac) ->
        let k = mk_kernel ~restrict ~positive_frac:frac label in
        let c name = (name, restrict) in
        let base = W.run_config ~with_cfg:false (c "o3-novec") k in
        let sv = W.run_config ~with_cfg:false (c "sv") k in
        let svv = W.run_config ~with_cfg:false (c "sv+v") k in
        W.check_equivalence k [ c "sv"; c "sv+v" ];
        [ label; sp (base.W.r_cost /. sv.W.r_cost);
          sp (base.W.r_cost /. svv.W.r_cost) ])
      [
        ("globals (restrict), 99% positive", true, 0.99);
        ("globals (restrict), 50% positive", true, 0.5);
        ("pointer params, 99% positive (2-level versioning)", false, 0.99);
      ]
  in
  List.iter (Table.add_row t) rows;
  "s258 speculation study (speedup over scalar -O3-novec)\n" ^ Table.render t
  ^ "paper: ~2.0x with >99% positive entries; same with arrays as pointer\n\
     parameters, which needs two levels of versioning\n"

(* ------------------------------------------------------------ ablations *)

(* A1: number of run-time checks with the min-cut versus the naive
   strategy that checks *every* conditional dependence among the
   requested nodes (what a versioning scheme without the min-cut
   reduction would emit). *)
let ablation_mincut ?(jobs = 1) () : string =
  let open Fgv_analysis in
  let t = Table.create [ "kernel"; "min-cut checks"; "all-cond-edges"; "saved" ] in
  let total_min = ref 0 and total_naive = ref 0 in
  let kernel_checks =
    Pool.map ~jobs
      (fun (k : W.kernel) ->
      let unrolled f =
        P.Pipelines.run "o3-novec" f;
        ignore (P.Ifconv.run f);
        ignore (P.Unroll.run f);
        ignore (P.Constfold.run f)
      in
      let f = W.compile_with ~restrict:false unrolled k.W.k_source in
      (* measure both strategies on the store groups SLP would seed, in
         every region *)
      let min_checks = ref 0 and naive_checks = ref 0 in
      List.iter
        (fun region ->
          let scev = Scev.create f in
          let g = Depgraph.build f scev region in
          let stores =
            List.filter_map
              (fun item ->
                match item with
                | Ir.I v -> (
                  match (Ir.inst f v).Ir.kind with
                  | Ir.Store _ -> Some (Ir.NI v)
                  | _ -> None)
                | _ -> None)
              (Ir.region_items f region)
          in
          if List.length stores >= 2 then begin
            (match Fgv_versioning.Plan.infer_for_nodes g stores with
            | Some plan ->
              min_checks := !min_checks + Fgv_versioning.Plan.conds_count plan
            | None -> ());
            (* naive: every conditional edge in the subgraph reachable
               from the stores *)
            let idx = List.map (Depgraph.node_index g) stores in
            let seen = Array.make (Array.length g.Depgraph.nodes) false in
            let conds = ref 0 in
            let rec dfs v =
              if not seen.(v) then begin
                seen.(v) <- true;
                List.iter
                  (fun e ->
                    (match e.Depgraph.e_cond with
                    | Some atoms -> conds := !conds + List.length atoms
                    | None -> ());
                    dfs e.Depgraph.e_dst)
                  g.Depgraph.succ.(v)
              end
            in
            List.iter dfs idx;
            naive_checks := !naive_checks + !conds
          end)
        (Ir.regions f);
      (k.W.k_name, !min_checks, !naive_checks))
      Polybench.kernels
  in
  List.iter
    (fun (name, min_checks, naive_checks) ->
      if naive_checks > 0 then begin
        total_min := !total_min + min_checks;
        total_naive := !total_naive + naive_checks;
        Table.add_row t
          [ name; string_of_int min_checks; string_of_int naive_checks;
            Printf.sprintf "%.0f%%"
              (100.0 *. (1.0 -. (float_of_int min_checks /. float_of_int naive_checks))) ]
      end)
    kernel_checks;
  Table.add_sep t;
  Table.add_row t
    [ "total"; string_of_int !total_min; string_of_int !total_naive;
      Printf.sprintf "%.0f%%"
        (if !total_naive = 0 then 0.0
         else 100.0 *. (1.0 -. (float_of_int !total_min /. float_of_int !total_naive))) ];
  "Ablation A1 — run-time conditions: min-cut vs all conditional edges\n"
  ^ Table.render t

(* A2: condition optimizations on/off — dynamic cost of the versioned
   program with redundant-condition elimination and coalescing disabled. *)
let ablation_condopt ?(jobs = 1) () : string =
  let t = Table.create [ "kernel"; "condopt ON"; "condopt OFF"; "overhead" ] in
  let rows =
    Pool.map ~jobs
      (fun (k : W.kernel) ->
      let with_opt =
        (W.run_config ~with_cfg:false ("sv+v", false) k).W.r_cost
      in
      let without =
        let f =
          W.compile_with ~restrict:false
            (fun f ->
              let config =
                {
                  P.Slp.default_config with
                  condopt = Fgv_versioning.Condopt.none_config;
                }
              in
              P.Pipelines.(run_stages f scalar_stages);
              ignore (P.Ifconv.run f);
              ignore (P.Unroll.run f);
              ignore (P.Constfold.run f);
              ignore (P.Slp.run ~config f);
              P.Pipelines.(run_stages f scalar_stages))
            k.W.k_source
        in
        let out = Interp.run f ~args:k.W.k_args ~mem:(W.fresh_mem k) in
        Interp.cost out.Interp.counters
      in
      let ratio = without /. with_opt in
      ( ratio,
        [ k.W.k_name;
          Printf.sprintf "%.0f" with_opt;
          Printf.sprintf "%.0f" without;
          Printf.sprintf "%.2fx" ratio ] ))
      Polybench.kernels
  in
  List.iter (fun (_, row) -> Table.add_row t row) rows;
  Table.add_sep t;
  Table.add_row t
    [ "geomean"; ""; "";
      Printf.sprintf "%.2fx" (Stats.geomean (List.map fst rows)) ];
  "Ablation A2 — cost without redundant-condition elimination/coalescing\n"
  ^ Table.render t
