(* Regenerates the test goldens.

     dune exec test/gen_golden.exe > test/golden_s131.c
     dune exec test/gen_golden.exe -- corpus > test/golden_corpus.txt

   Without arguments it prints the fast-mode C of s131 under
   sv+versioning, which pins the emitter's exact output.  [corpus]
   prints one line per paper kernel and registry pipeline: the MD5 of
   the optimized PSSA as printed, the MD5 of the pipeline's remark
   stream (one JSON object per line, as [fgvc --remarks=json] prints
   it) and the MD5 of the compile's counters (one "name value" line
   each, sorted by name, zero-valued counters included, no timers).
   Each kernel compiles under every pipeline twice, with restrict as
   declared and without it: dropping restrict is what leaves the
   versioning clients conditional dependences to plan around.  The
   paper kernels are small, so the corpus ends with three generated
   big-region programs, the compile-time lane's [fuzz-s240-1] and
   [fuzz-s240-2] under every pipeline and [fuzz-s480-1] under [sv+v]:
   their top-level regions hold hundreds of nodes.  Last come the
   harness-only pipelines the bench harness compiles: Fig. 22's control
   [rle-baseline] on every paper kernel, and [combined-static], the
   clients figure's static dual of [combined], without restrict as that
   figure compiles it (its other pairs are registry rows above).
   [dune runtest] recomputes the corpus file and diffs it against the
   committed one, so a change that moves any pass's output or decisions
   fails there; it does so a second time under [OCAMLRUNPARAM=R], so
   output that depends on hash-table order fails too.
   Review the diff before committing either file. *)

module W = Fgv_bench.Workload
module P = Fgv_passes.Pipelines
module Obs = Fgv_support.Obs

let s131 () =
  let k =
    List.find (fun k -> k.W.k_name = "s131") Fgv_bench.Tsvc.kernels
  in
  let prog = Fgv_cfg.Lower.lower (W.compile ("sv+v", true) k) in
  print_string (Fgv_backend.Emit.fast prog ~args:k.W.k_args ~mem:(W.fresh_mem k))

let corpus () =
  let kernels =
    Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
    @ Fgv_bench.Specfp.kernels
  in
  let line kname source name ~restrict =
    (* the compile records into a fresh context, so its counters are
       its own and not what earlier lines left behind *)
    let (result, remarks), obs =
      Obs.isolated (fun () ->
          Obs.collect_remarks (fun () ->
              Fgv_frontend.Compile.source ~restrict (P.run name) source))
    in
    let f =
      match result with
      | Ok f -> f
      | Error e -> failwith (Fgv_frontend.Compile.message e)
    in
    let lines render xs = String.concat "" (List.map render xs) in
    let stream =
      lines
        (fun r ->
          Fgv_support.Json.to_string ~minify:true
            (Fgv_support.Trace.remark_json r)
          ^ "\n")
        remarks
    in
    let counters =
      lines (fun (k, n) -> Printf.sprintf "%s %d\n" k n) (Obs.counters obs)
    in
    let md5 s = Digest.to_hex (Digest.string s) in
    Printf.printf "%s %s%s %s %s %s\n" kname name
      (if restrict then "" else " no-restrict")
      (md5 (Fgv_pssa.Printer.to_string f))
      (md5 stream) (md5 counters)
  in
  List.iter
    (fun (k : W.kernel) ->
      let line = line k.W.k_name k.W.k_source in
      List.iter (fun name -> line name ~restrict:true) P.names;
      List.iter (fun name -> line name ~restrict:false) P.names)
    kernels;
  let fuzz size seed names =
    let module G = Fgv_fuzz.Generator in
    let source =
      G.render (G.generate ~config:(G.big_region_config size) ~seed ())
    in
    List.iter
      (fun name ->
        line (Printf.sprintf "fuzz-s%d-%d" size seed) source name
          ~restrict:true)
      names
  in
  fuzz 240 1 P.names;
  fuzz 240 2 P.names;
  fuzz 480 1 [ "sv+v" ];
  (* Fig. 22's control on every paper kernel, then the clients figure's
     pipelines the registry lacks, without restrict as that figure
     compiles *)
  List.iter
    (fun (k : W.kernel) ->
      line k.W.k_name k.W.k_source "rle-baseline" ~restrict:true)
    kernels;
  List.iter
    (fun (client, kname) ->
      let k = Fgv_bench.Experiments.tsvc_kernel kname in
      List.iter
        (fun name ->
          if not (List.mem name P.names) then
            line kname k.W.k_source name ~restrict:false)
        [ client ^ "-static"; client ])
    Fgv_bench.Experiments.client_specs

let () =
  match Sys.argv with
  | [| _ |] -> s131 ()
  | [| _; "corpus" |] -> corpus ()
  | _ ->
    prerr_endline "usage: gen_golden.exe [corpus]";
    exit 2
