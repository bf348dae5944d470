(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (SV) over the simulator, plus the native, compile-
   time and compile-service lanes.

   Usage:
     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe -- fig16                # one table
     dune exec bench/main.exe -- all --json FILE      # also write FILE as
                                                      # machine-readable JSON
     dune exec bench/main.exe -- all --jobs 8         # 8 worker domains

   The JSON document (see README "Benchmark JSON schema") carries the
   per-figure speedup rows plus the telemetry counters the versioning
   framework recorded while producing each figure — plans inferred,
   checks emitted, cut sizes, condition-optimization work — so the perf
   trajectory can be tracked across commits without scraping tables.

   Parallelism: each figure's kernel rows fan out across a domain pool
   (--jobs N, default POOL_JOBS or the core count).  Figures themselves
   run sequentially — that keeps the printed sections ordered and lets
   Telemetry.capture attribute counters per figure (the pool merges its
   tasks' Obs shards into the main domain's context at each join, inside
   the capture).  Every number in the tables and in the JSON (timings
   excluded) is identical at any job count; CI diffs --jobs 1 against
   --jobs 2 to pin that.  Timer totals under "timers" are sums over
   tasks, not wall-clock spans of the join. *)

module E = Fgv_bench.Experiments
module W = Fgv_bench.Workload
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module J = Fgv_support.Json
module H = Fgv_support.Histogram
module G = Fgv_fuzz.Generator

let section title body =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!";
  print_string body;
  print_newline ()

(* ------------------------------------------------------- JSON figures *)

(* Main-domain-only state: figures run sequentially on the main domain;
   pool workers never touch these. *)
let jobs = ref 1

let trace_file : string option ref = ref None

let json_figures : (string * J.t) list ref = ref []

let add_figure name doc = json_figures := (name, doc) :: !json_figures

let counters_json delta = J.Assoc (List.map (fun (n, v) -> (n, J.Int v)) delta)

let geomean f rows = Fgv_support.Stats.geomean (List.map f rows)

(* Run one figure's row computation under a telemetry capture: the text
   table still prints, and the captured counters (the framework work of
   this figure alone) land in the JSON document. *)
let run_fig19 () =
  Tr.with_span ~cat:"figure" "fig19" @@ fun () ->
  let rows, delta = Tm.capture (fun () -> E.tsvc_rows ~jobs:!jobs ()) in
  section "E2 / Fig. 19 (TSVC)" (E.fig19_of_rows rows);
  add_figure "fig19"
    (J.Assoc
       [
         ( "rows",
           J.List
             (List.map
                (fun (r : E.tsvc_row) ->
                  J.Assoc
                    [
                      ("name", J.String r.E.t_name);
                      ("sv", J.Float r.E.t_sv);
                      ("sv_versioning", J.Float r.E.t_svv);
                      ("newly_vectorized", J.Bool r.E.t_newly_vectorized);
                    ])
                rows) );
         ( "geomean",
           J.Assoc
             [
               ("sv", J.Float (geomean (fun r -> r.E.t_sv) rows));
               ("sv_versioning", J.Float (geomean (fun r -> r.E.t_svv) rows));
             ] );
         ("counters", counters_json delta);
       ])

let poly_json (rows : E.poly_row list) =
  J.Assoc
    [
      ( "rows",
        J.List
          (List.map
             (fun (r : E.poly_row) ->
               J.Assoc
                 [
                   ("name", J.String r.E.p_name);
                   ("o3", J.Float r.E.p_o3);
                   ("sv", J.Float r.E.p_sv);
                   ("sv_versioning", J.Float r.E.p_svv);
                   ("newly_vectorized", J.Bool r.E.p_newly);
                 ])
             rows) );
      ( "geomean",
        J.Assoc
          [
            ("o3", J.Float (geomean (fun r -> r.E.p_o3) rows));
            ("sv", J.Float (geomean (fun r -> r.E.p_sv) rows));
            ("sv_versioning", J.Float (geomean (fun r -> r.E.p_svv) rows));
          ] );
    ]

let run_fig16 () =
  Tr.with_span ~cat:"figure" "fig16" @@ fun () ->
  let (off_rows, on_rows), delta =
    Tm.capture (fun () ->
        ( E.polybench_rows ~jobs:!jobs ~restrict:false (),
          E.polybench_rows ~jobs:!jobs ~restrict:true () ))
  in
  section "E1 / Fig. 16 (PolyBench)"
    (E.fig16_of_rows ~restrict:false off_rows
    ^ "\n"
    ^ E.fig16_of_rows ~restrict:true on_rows
    ^ "paper: restrict OFF geomeans SV+V 1.65x over scalar / 1.50x over -O3;\n\
       restrict ON 1.76x / 1.51x; versioning newly vectorizes correlation,\n\
       covariance, floyd-warshall, lu, ludcmp\n");
  add_figure "fig16"
    (J.Assoc
       [
         ("restrict_off", poly_json off_rows);
         ("restrict_on", poly_json on_rows);
         ("counters", counters_json delta);
       ])

let run_fig22 () =
  Tr.with_span ~cat:"figure" "fig22" @@ fun () ->
  let rows, delta = Tm.capture (fun () -> E.rle_rows ~jobs:!jobs ()) in
  section "E5 / Fig. 22 (SPEC FP surrogates, RLE)" (E.fig22_of_rows rows);
  add_figure "fig22"
    (J.Assoc
       [
         ( "rows",
           J.List
             (List.map
                (fun (r : E.rle_row) ->
                  J.Assoc
                    [
                      ("name", J.String r.E.f_name);
                      ("speedup", J.Float r.E.f_speedup);
                      ("loads_eliminated", J.Float r.E.f_loads_eliminated);
                      ("branches_increase", J.Float r.E.f_branches_increase);
                      ("licm_extra", J.Float r.E.f_licm_extra);
                      ("gvn_extra", J.Float r.E.f_gvn_extra);
                      ("size_increase", J.Float r.E.f_size_increase);
                    ])
                rows) );
         ( "geomean",
           J.Assoc
             [ ("speedup", J.Float (geomean (fun r -> r.E.f_speedup) rows)) ] );
         ("counters", counters_json delta);
       ])

let run_clients () =
  Tr.with_span ~cat:"figure" "clients" @@ fun () ->
  let rows, delta = Tm.capture (fun () -> E.clients_rows ~jobs:!jobs ()) in
  section "E6 / DSE & loop-distribution clients" (E.clients_of_rows rows);
  add_figure "clients"
    (J.Assoc
       [
         ( "rows",
           J.List
             (List.map
                (fun (r : E.client_row) ->
                  J.Assoc
                    [
                      ("client", J.String r.E.v_client);
                      ("kernel", J.String r.E.v_kernel);
                      ("speedup_vs_static", J.Float r.E.v_speedup);
                      ("newly_vectorized", J.Bool r.E.v_newly_vectorized);
                      ("forwarded", J.Int r.E.v_forwarded);
                      ("killed", J.Int r.E.v_killed);
                      ("pieces", J.Int r.E.v_pieces);
                    ])
                rows) );
         ( "geomean",
           J.Assoc
             [ ("speedup_vs_static", J.Float (geomean (fun r -> r.E.v_speedup) rows)) ] );
         ("counters", counters_json delta);
       ])

(* ------------------------------------------------- native wall-clock *)

(* The native lane measures real time, so everything wall-derived goes
   under "timing" keys (stripped by the CI determinism diff); the
   deterministic fields — kernel set, model speedups, checksum verdicts
   — are what CI pins.  Without a C compiler the figure degrades to a
   skipped marker instead of failing the whole bench run. *)
let run_native () =
  Tr.with_span ~cat:"figure" "native" @@ fun () ->
  if not (Fgv_bench.Native_rows.available ()) then begin
    section "Native wall-clock" "skipped: no C compiler on PATH\n";
    add_figure "native" (J.Assoc [ ("skipped", J.Bool true); ("rows", J.List []) ])
  end
  else begin
    let module NR = Fgv_bench.Native_rows in
    let rows, delta =
      Tm.capture (fun () -> NR.rows ~jobs:!jobs ())
    in
    section "Native wall-clock (cc -O2 -march=native)" (NR.table_of_rows rows);
    let geo fig f =
      let sel = List.filter (fun (r : NR.row) -> r.NR.nr_figure = fig) rows in
      if sel = [] then J.Null else J.Float (geomean f sel)
    in
    add_figure "native"
      (J.Assoc
         [
           ("skipped", J.Bool false);
           ( "rows",
             J.List
               (List.map
                  (fun (r : NR.row) ->
                    J.Assoc
                      [
                        ("figure", J.String r.NR.nr_figure);
                        ("kernel", J.String r.NR.nr_name);
                        ("model_speedup", J.Float r.NR.nr_model_speedup);
                        ("checksum_ok", J.Bool r.NR.nr_checksum_ok);
                        ( "timing",
                          J.Assoc
                            [
                              ("static_ns", J.Float r.NR.nr_static_ns);
                              ("versioned_ns", J.Float r.NR.nr_versioned_ns);
                              ( "native_speedup",
                                J.Float (NR.native_speedup r) );
                              ("static_reps", J.Int r.NR.nr_static_reps);
                              ( "versioned_reps",
                                J.Int r.NR.nr_versioned_reps );
                            ] );
                      ])
                  rows) );
           ( "timing",
             J.Assoc
               [
                 ( "geomean_native_speedup",
                   J.Assoc
                     [
                       ("fig19", geo "fig19" NR.native_speedup);
                       ("fig16", geo "fig16" NR.native_speedup);
                       ("fig22", geo "fig22" NR.native_speedup);
                     ] );
               ] );
           ( "geomean_model_speedup",
             J.Assoc
               [
                 ("fig19", geo "fig19" (fun r -> r.NR.nr_model_speedup));
                 ("fig16", geo "fig16" (fun r -> r.NR.nr_model_speedup));
                 ("fig22", geo "fig22" (fun r -> r.NR.nr_model_speedup));
               ] );
           ("counters", counters_json delta);
         ])
  end

(* ----------------------------------------------- compile-time figures *)

(* The compile-time lane times the compiler itself, not the generated
   code: the full sv_versioning pipeline (parse -> plan -> materialize ->
   condopt; interpretation excluded) over the paper's kernel suites plus
   seeded fuzz programs of growing size.  Wall time and minor-heap
   allocation land under a per-row "timing" object (stripped by the CI
   determinism diff); the telemetry counters — including
   depgraph.pairs_pruned and pred.hashcons_hits — are deterministic at
   any --jobs count and are what CI pins. *)

type ct_row = {
  ct_name : string;
  ct_wall_s : float;
  ct_minor_words : float;
  ct_counters : (string * int) list;
  ct_timers : (string * float * int) list;
      (* (name, total seconds, invocations) of every timer the row ran *)
}

(* A lane row: a program source plus the configuration it is compiled
   with (the suites time "sv+v"; the client rows time the client
   pipelines on their target kernels, without restrict so the versioning
   path actually runs). *)
type ct_spec = {
  cs_name : string;
  cs_source : string Lazy.t;
  cs_config : W.config;
}

(* Fuzz-program sources for the lane: deterministic in (size, seed),
   growing statement budgets so the dependence graphs get big. *)
let ct_fuzz_specs =
  List.map
    (fun (size, seed) ->
      {
        cs_name = Printf.sprintf "fuzz-s%d-%d" size seed;
        cs_source =
          lazy
            (G.render
               (G.generate ~config:(G.big_region_config size) ~seed ()));
        cs_config = ("sv+v", true);
      })
    [ (30, 1); (60, 1); (120, 1); (240, 1); (240, 2); (480, 1) ]

let ct_kernel_specs () =
  List.map
    (fun (k : W.kernel) ->
      { cs_name = k.W.k_name; cs_source = lazy k.W.k_source;
        cs_config = ("sv+v", true) })
    (Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
   @ Fgv_bench.Specfp.kernels)

let ct_client_specs () =
  List.map
    (fun (client, kname) ->
      {
        cs_name = kname ^ "+" ^ client;
        cs_source = lazy (E.tsvc_kernel kname).W.k_source;
        cs_config = (client, false);
      })
    [ ("dse", "s222"); ("distribute", "s2251"); ("combined", "s222") ]

let ct_run_row spec : ct_row =
  let name, restrict = spec.cs_config in
  let src = Lazy.force spec.cs_source in
  (* an isolated context: the row's counters and timers are its own, not
     what earlier rows on the same worker left behind *)
  let (wall, words, timers), shard =
    Obs.isolated (fun () ->
        let m0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        ignore (W.compile_with ~restrict (Fgv_passes.Pipelines.run name) src);
        let wall = Unix.gettimeofday () -. t0 in
        (wall, Gc.minor_words () -. m0, Tm.timers ()))
  in
  Obs.merge shard;
  { ct_name = spec.cs_name; ct_wall_s = wall; ct_minor_words = words;
    ct_counters = Obs.counters shard; ct_timers = timers }

let run_compiletime () =
  Tr.with_span ~cat:"figure" "compiletime" @@ fun () ->
  let specs = ct_kernel_specs () @ ct_client_specs () @ ct_fuzz_specs in
  let rows, delta =
    Tm.capture (fun () -> Fgv_support.Pool.map ~jobs:!jobs ct_run_row specs)
  in
  let fuzz_rows =
    List.filter
      (fun r -> String.length r.ct_name > 4 && String.sub r.ct_name 0 4 = "fuzz")
      rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %10s %14s %10s %10s\n" "program" "wall ms"
       "minor words" "pruned" "hc hits");
  let counter row n = try List.assoc n row.ct_counters with Not_found -> 0 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-18s %10.2f %14.0f %10d %10d\n" r.ct_name
           (r.ct_wall_s *. 1e3) r.ct_minor_words
           (counter r "depgraph.pairs_pruned")
           (counter r "pred.hashcons_hits")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "geomean wall: %.2f ms (all), %.2f ms (fuzz)\n"
       (1e3 *. geomean (fun r -> r.ct_wall_s) rows)
       (1e3 *. geomean (fun r -> r.ct_wall_s) fuzz_rows));
  section "Compile time (sv_versioning pipeline)" (Buffer.contents buf);
  add_figure "compiletime"
    (J.Assoc
       [
         ( "rows",
           J.List
             (List.map
                (fun r ->
                  J.Assoc
                    [
                      ("name", J.String r.ct_name);
                      ( "timing",
                        J.Assoc
                          [
                            ("wall_s", J.Float r.ct_wall_s);
                            ("minor_words", J.Float r.ct_minor_words);
                            ( "timers",
                              J.Assoc
                                (List.map
                                   (fun (n, total, count) ->
                                     ( n,
                                       J.Assoc
                                         [
                                           ("total_s", J.Float total);
                                           ("count", J.Int count);
                                         ] ))
                                   r.ct_timers) );
                          ] );
                      ("counters", counters_json r.ct_counters);
                    ])
                rows) );
         ( "timing",
           J.Assoc
             [
               ("geomean_wall_s", J.Float (geomean (fun r -> r.ct_wall_s) rows));
               ( "geomean_fuzz_wall_s",
                 J.Float (geomean (fun r -> r.ct_wall_s) fuzz_rows) );
             ] );
         ("counters", counters_json delta);
       ])

(* ------------------------------------------------- compile service lane *)

(* A repeat-heavy request mix against the compile service (lib/service):
   [svc_distinct] distinct kernels, each requested [svc_repeats] times
   round-robin, driven request-by-request twice over the same service.
   The first pass measures the cold cache (every distinct kernel misses
   once), the second pass is all hits — their wall-clock ratio is the
   cache's warmup speedup.  Latencies land under "timing" (CI strips
   them when diffing --jobs runs); the hit/miss/eviction accounting is
   deterministic and diffable. *)
let svc_distinct = 16

let svc_repeats = 4

let svc_requests () =
  let pipes = [ "o3"; "sv+v"; "dse"; "combined" ] in
  let mk i =
    let src =
      Printf.sprintf
        "kernel bench%d(float* restrict a, float* restrict b, int n) { for \
         (int i = 0; i < n; i = i + 1) { a[i] = b[i] * %d.0 + %d.0; } }"
        i (i + 1) i
    in
    {
      Fgv_service.Protocol.rq_id = Printf.sprintf "r%d" i;
      rq_source = src;
      rq_pipeline = List.nth pipes (i mod List.length pipes);
      rq_no_restrict = false;
      rq_emit_c = false;
      rq_heap = Fgv_service.Protocol.default_heap;
    }
  in
  let distinct = List.init svc_distinct mk in
  List.concat (List.init svc_repeats (fun _ -> distinct))

let run_service () =
  Tr.with_span ~cat:"figure" "service" @@ fun () ->
  let module S = Fgv_service.Service in
  let reqs = svc_requests () in
  (* Client-side view: one log-bucketed histogram over every request's
     round-trip latency (lib/support/histogram.ml) — quantiles and the
     bucket counts the JSON figure carries both come from it. *)
  let lat = H.create () in
  let (svc, cold_wall, warm_wall), delta =
    Tm.capture (fun () ->
        let svc = S.create ~jobs:!jobs () in
        let drive () =
          let t0 = Unix.gettimeofday () in
          List.iter
            (fun rq ->
              let r0 = Unix.gettimeofday () in
              ignore (S.handle_request svc rq);
              H.record lat (Unix.gettimeofday () -. r0))
            reqs;
          Unix.gettimeofday () -. t0
        in
        let cold_wall = drive () in
        let warm_wall = drive () in
        Obs.merge svc.S.obs;
        (svc, cold_wall, warm_wall))
  in
  let requests = S.stat svc "requests" in
  let hits = S.stat svc "hits" and misses = S.stat svc "misses" in
  let hit_rate = S.hit_rate svc in
  let p50 = H.quantile lat 0.5 and p99 = H.quantile lat 0.99 in
  let speedup = cold_wall /. warm_wall in
  section "Compile service (repeat-heavy mix)"
    (Printf.sprintf
       "%d requests (%d distinct, %d requests each over 2 passes): %d \
        hits, %d misses -> hit rate %.3f\n\
        latency p50 %.2f us, p99 %.2f us; cold pass %.1f ms, warm pass \
        %.1f ms -> warmup speedup %.1fx\n"
       requests svc_distinct (2 * svc_repeats) hits misses hit_rate
       (1e6 *. p50) (1e6 *. p99) (1e3 *. cold_wall) (1e3 *. warm_wall)
       speedup);
  add_figure "service"
    (J.Assoc
       [
         ("requests", J.Int requests);
         ("distinct", J.Int svc_distinct);
         ("hits", J.Int hits);
         ("misses", J.Int misses);
         ("coalesced", J.Int (S.stat svc "coalesced"));
         ("evictions", J.Int (S.stat svc "evictions"));
         ("hit_rate", J.Float hit_rate);
         ( "timing",
           J.Assoc
             [
               ("cold_wall_s", J.Float cold_wall);
               ("warm_wall_s", J.Float warm_wall);
               ("warmup_speedup", J.Float speedup);
               ("p50_s", J.Float p50);
               ("p99_s", J.Float p99);
               ("latency", H.to_json lat);
             ] );
         ("counters", counters_json delta);
       ])

(* ------------------------------------------------ incremental lane *)

(* Edit-aware recompilation (DESIGN §17): one translation unit holding
   [inc_kernels] kernels is compiled cold, then recompiled once per
   round with exactly one kernel textually edited.  Per-kernel sub-keys
   make every untouched kernel hit the artifact cache, so the warm
   rounds' wall clock is ~1/[inc_kernels] of the cold compile; the lane
   reports the measured speedup, the unit reuse rate, and whether every
   incremental response is byte-identical to a fresh cold service
   compiling the same edited source (the determinism contract).  Timing
   runs against a jobs:1 service so cold/warm compare like-for-like;
   the byte-identity reference service uses --jobs, which doubles as a
   cross-jobs determinism check. *)
let inc_kernels = 16

let inc_rounds = 4

let inc_kernel_src i v =
  Printf.sprintf
    "kernel inc%d(float* restrict a, float* restrict b, int n) { for (int \
     i = 0; i < n; i = i + 1) { a[i] = b[i] * %d.0 + %d.0; } }"
    i (i + 1 + (100 * v)) i

let inc_source (versions : int array) : string =
  String.concat "\n"
    (List.init inc_kernels (fun i -> inc_kernel_src i versions.(i)))

let run_incremental () =
  Tr.with_span ~cat:"figure" "incremental" @@ fun () ->
  let module S = Fgv_service.Service in
  let module P = Fgv_service.Protocol in
  let request src =
    {
      P.rq_id = "inc";
      rq_source = src;
      rq_pipeline = "sv+v";
      rq_no_restrict = false;
      rq_emit_c = false;
      rq_heap = P.default_heap;
    }
  in
  let (svc, sources, responses, cold_wall, warm_walls), delta =
    Tm.capture (fun () ->
        let svc = S.create ~jobs:1 () in
        let versions = Array.make inc_kernels 0 in
        let drive src =
          let t0 = Unix.gettimeofday () in
          let resp = P.response_line (S.handle_request svc (request src)) in
          (resp, Unix.gettimeofday () -. t0)
        in
        let src0 = inc_source versions in
        let resp0, cold_wall = drive src0 in
        let rounds =
          List.init inc_rounds (fun r ->
              let k = r mod inc_kernels in
              versions.(k) <- versions.(k) + 1;
              let src = inc_source versions in
              let resp, wall = drive src in
              (src, resp, wall))
        in
        Obs.merge svc.S.obs;
        ( svc,
          src0 :: List.map (fun (s, _, _) -> s) rounds,
          resp0 :: List.map (fun (_, r, _) -> r) rounds,
          cold_wall,
          List.map (fun (_, _, w) -> w) rounds ))
  in
  (* determinism: every incremental response byte-equals a fresh cold
     service's answer for the same source (cache state must never leak
     into response bytes), across job counts *)
  let byte_identical =
    List.for_all2
      (fun src resp ->
        let fresh = S.create ~jobs:!jobs () in
        let line = P.response_line (S.handle_request fresh (request src)) in
        Obs.merge fresh.S.obs;
        line = resp)
      sources responses
  in
  let warm_wall =
    List.fold_left ( +. ) 0.0 warm_walls
    /. float_of_int (max 1 (List.length warm_walls))
  in
  let speedup = cold_wall /. warm_wall in
  let reuse = S.reuse_rate svc in
  section "Incremental recompilation (edit one kernel per round)"
    (Printf.sprintf
       "%d kernels, %d edit rounds: %d unit queries, %d memo hits, %d \
        invalidated, %d recompiled -> reuse rate %.3f\n\
        cold %.1f ms, warm mean %.1f ms -> warm speedup %.1fx; byte-identical \
        vs fresh: %b\n"
       inc_kernels inc_rounds (S.stat svc "queries_asked")
       (S.stat svc "memo_hits") (S.stat svc "invalidated")
       (S.stat svc "recomputed") reuse (1e3 *. cold_wall) (1e3 *. warm_wall)
       speedup byte_identical);
  add_figure "incremental"
    (J.Assoc
       [
         ("kernels", J.Int inc_kernels);
         ("rounds", J.Int inc_rounds);
         ("queries_asked", J.Int (S.stat svc "queries_asked"));
         ("memo_hits", J.Int (S.stat svc "memo_hits"));
         ("invalidated", J.Int (S.stat svc "invalidated"));
         ("recomputed", J.Int (S.stat svc "recomputed"));
         ("reuse_rate", J.Float reuse);
         ("byte_identical", J.Bool byte_identical);
         ( "timing",
           J.Assoc
             [
               ("cold_wall_s", J.Float cold_wall);
               ("warm_wall_s", J.Float warm_wall);
               ("warm_speedup", J.Float speedup);
             ] );
         ("counters", counters_json delta);
       ])

let write_json file =
  let doc =
    J.Assoc
      [
        ("schema_version", J.Int Fgv_support.Version.bench_json_schema);
        ("suite", J.String "fgv-bench");
        ("jobs", J.Int !jobs);
        ("figures", J.Assoc (List.rev !json_figures));
        ("telemetry", Tm.snapshot ());
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* --------------------------------------------------------------- main *)

let usage () =
  Printf.eprintf
    "usage: main.exe [fig16|fig19|fig22|clients|s258|ablation-mincut|\
     ablation-condopt|compiletime|native|service|incremental|all]... \
     [--json FILE] [--jobs N] [--trace FILE]\n";
  exit 1

let () =
  let rec parse sel json = function
    | [] -> (List.rev sel, json)
    | "--json" :: file :: rest -> parse sel (Some file) rest
    | [ "--json" ] ->
      Printf.eprintf "--json requires a file argument\n";
      exit 1
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      Tr.set_spans true;
      parse sel json rest
    | [ "--trace" ] ->
      Printf.eprintf "--trace requires a file argument\n";
      exit 1
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j > 0 ->
        jobs := j;
        parse sel json rest
      | _ ->
        Printf.eprintf "--jobs requires a positive integer\n";
        exit 1)
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs requires a positive integer argument\n";
      exit 1
    | a :: rest -> parse (a :: sel) json rest
  in
  jobs := Fgv_support.Pool.default_jobs ();
  let sel, json_file = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let sel = if sel = [] then [ "all" ] else sel in
  let run_s258 () =
    section "E4 / s258 speculation" (E.s258_speculation ~jobs:!jobs ())
  in
  let run_a1 () =
    section "A1 / min-cut ablation" (E.ablation_mincut ~jobs:!jobs ())
  in
  let run_a2 () =
    section "A2 / condition-optimization ablation"
      (E.ablation_condopt ~jobs:!jobs ())
  in
  let run_one = function
    | "fig19" | "tsvc" -> run_fig19 ()
    | "fig16" | "polybench" -> run_fig16 ()
    | "fig22" | "rle" | "specfp" -> run_fig22 ()
    | "clients" | "dse" | "distribute" -> run_clients ()
    | "s258" -> run_s258 ()
    | "ablation-mincut" -> run_a1 ()
    | "ablation-condopt" -> run_a2 ()
    | "compiletime" -> run_compiletime ()
    | "native" -> run_native ()
    | "service" -> run_service ()
    | "incremental" -> run_incremental ()
    | "all" ->
      run_fig19 ();
      run_fig16 ();
      run_fig22 ();
      run_clients ();
      run_s258 ();
      run_a1 ();
      run_a2 ();
      run_compiletime ();
      run_native ();
      run_service ();
      run_incremental ()
    | other ->
      Printf.eprintf "unknown table %s\n" other;
      usage ()
  in
  List.iter run_one sel;
  Option.iter write_json json_file;
  Option.iter
    (fun file ->
      Tr.write_chrome_trace file;
      Printf.printf "wrote %s\n%!" file)
    !trace_file
