(* Regenerates the test goldens.

     dune exec test/gen_golden.exe > test/golden_s131.c
     dune exec test/gen_golden.exe -- corpus > test/golden_corpus.txt

   Without arguments it prints the fast-mode C of s131 under
   sv+versioning, which pins the emitter's exact output.  [corpus]
   prints one line per paper kernel and registry pipeline: the MD5 of
   the optimized PSSA as printed and the MD5 of the pipeline's remark
   stream (one JSON object per line, as [fgvc --remarks=json] prints
   it).  Kernels compile with restrict as declared, plus without
   restrict for [o3] and [sv+v], the pairs the paper's tables compare.
   The paper kernels are small, so the corpus ends with three generated
   big-region programs, the compile-time lane's [fuzz-s240-1] and
   [fuzz-s240-2] under every pipeline and [fuzz-s480-1] under [sv+v]:
   their top-level regions hold hundreds of nodes.  Last come the
   configurations the bench harness compiles beyond those: Fig. 22's
   control [rle-baseline] on every paper kernel, and the clients
   figure's static/versioned pairs without restrict.  [dune runtest]
   recomputes the corpus file and diffs it against the committed one,
   so a change that moves any pass's output or decisions fails there;
   it does so a second time under [OCAMLRUNPARAM=R], so output that
   depends on hash-table order fails too.
   Review the diff before committing either file. *)

module W = Fgv_bench.Workload
module P = Fgv_passes.Pipelines

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
    let f, remarks =
      match
        Fgv_support.Obs.collect_remarks (fun () ->
            Fgv_frontend.Compile.source ~restrict (P.run name) source)
      with
      | Ok f, remarks -> (f, remarks)
      | Error e, _ -> failwith (Fgv_frontend.Compile.message e)
    in
    let stream =
      String.concat ""
        (List.map
           (fun r ->
             Fgv_support.Json.to_string ~minify:true
               (Fgv_support.Trace.remark_json r)
             ^ "\n")
           remarks)
    in
    Printf.printf "%s %s%s %s %s\n" kname name
      (if restrict then "" else " no-restrict")
      (Digest.to_hex (Digest.string (Fgv_pssa.Printer.to_string f)))
      (Digest.to_hex (Digest.string stream))
  in
  List.iter
    (fun (k : W.kernel) ->
      let line = line k.W.k_name k.W.k_source in
      List.iter (fun name -> line name ~restrict:true) P.names;
      List.iter (fun name -> line name ~restrict:false) [ "o3"; "sv+v" ])
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
     static/versioned pairs, without restrict as that figure compiles *)
  List.iter
    (fun (k : W.kernel) ->
      line k.W.k_name k.W.k_source "rle-baseline" ~restrict:true)
    kernels;
  List.iter
    (fun (client, kname) ->
      let k = Fgv_bench.Experiments.tsvc_kernel kname in
      List.iter
        (fun name -> line kname k.W.k_source name ~restrict:false)
        [ client ^ "-static"; client ])
    Fgv_bench.Experiments.client_specs

let () =
  match Sys.argv with
  | [| _ |] -> s131 ()
  | [| _; "corpus" |] -> corpus ()
  | _ ->
    prerr_endline "usage: gen_golden.exe [corpus]";
    exit 2
