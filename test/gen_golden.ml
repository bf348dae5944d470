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
   [dune runtest] recomputes the corpus file and diffs it against the
   committed one, so a change that moves any pass's output or decisions
   fails there.  Review the diff before committing either file. *)

module W = Fgv_bench.Workload
module P = Fgv_passes.Pipelines

let s131 () =
  let k =
    List.find (fun k -> k.W.k_name = "s131") Fgv_bench.Tsvc.kernels
  in
  let cfgn = W.sv_versioning () in
  let f = W.compile_for cfgn k in
  ignore (cfgn.W.c_apply f);
  let prog = Fgv_cfg.Lower.lower f in
  print_string (Fgv_backend.Emit.fast prog ~args:k.W.k_args ~mem:(W.fresh_mem k))

let corpus () =
  let kernels =
    Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
    @ Fgv_bench.Specfp.kernels
  in
  let line (k : W.kernel) name apply ~restrict =
    let f =
      if restrict then Fgv_frontend.Lower_ast.compile k.W.k_source
      else Fgv_frontend.Lower_ast.compile_no_restrict k.W.k_source
    in
    let (), remarks =
      Fgv_support.Obs.collect_remarks (fun () -> apply ?on_pass:None f)
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
    Printf.printf "%s %s%s %s %s\n" k.W.k_name name
      (if restrict then "" else " no-restrict")
      (Digest.to_hex (Digest.string (Fgv_pssa.Printer.to_string f)))
      (Digest.to_hex (Digest.string stream))
  in
  List.iter
    (fun k ->
      List.iter (fun (name, apply) -> line k name apply ~restrict:true) P.registry;
      List.iter
        (fun name -> line k name (List.assoc name P.registry) ~restrict:false)
        [ "o3"; "sv+v" ])
    kernels

let () =
  match Sys.argv with
  | [| _ |] -> s131 ()
  | [| _; "corpus" |] -> corpus ()
  | _ ->
    prerr_endline "usage: gen_golden.exe [corpus]";
    exit 2
