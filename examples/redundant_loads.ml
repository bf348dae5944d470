(* Case study: redundant load elimination via versioning (paper SV-B).

   The loop reloads src[i] again and again because the stores to dst in
   between *might* alias it.  Static analysis cannot prove otherwise
   (plain pointer parameters), so the baseline keeps every load.  The
   versioning framework makes the loads of each group independent under
   a run-time disjointness check; the group then collapses onto its
   leader, and the whole loop is guarded by one hoisted check with a
   scalar clone as the fallback.

     dune exec examples/redundant_loads.exe
*)

open Fgv_pssa
module P = Fgv_passes

let source =
  {|
  kernel smooth(float* src, float* dst, int n) {
    for (int i = 1; i < n - 1; i = i + 1) {
      float a = src[i];
      dst[i] = a * 0.5;
      float b = src[i];
      dst[i] = dst[i] + b * 0.25;
      float c = src[i];
      dst[i] = dst[i] + c * 0.25;
    }
  }
|}

let len = 64

let fresh_mem () =
  Array.init (2 * len) (fun i -> Value.VFloat (Float.of_int (i mod 9) *. 0.5))

let run name pipeline ~src ~dst =
  let f = Fgv_frontend.Lower_ast.compile source in
  pipeline f;
  let out =
    Interp.run f
      ~args:[ Value.VInt src; Value.VInt dst; Value.VInt len ]
      ~mem:(fresh_mem ())
  in
  Printf.printf "  %-12s loads=%4d  cost=%6.0f\n" name
    out.Interp.counters.Interp.loads
    (Interp.cost out.Interp.counters);
  out

let () =
  print_endline "redundant load elimination (src and dst may alias)";
  print_endline "disjoint pointers (fast path):";
  let base = run "baseline" (fun f -> ignore (P.Pipelines.rle_baseline f)) ~src:0 ~dst:len in
  let rle = run "RLE+version" (fun f -> ignore (P.Pipelines.rle_pipeline f)) ~src:0 ~dst:len in
  assert (Interp.(observation_diff (observe base) (observe rle)) = None);
  Printf.printf "  -> %.1f%% of dynamic loads eliminated, %.2fx faster\n\n"
    (100.0
    *. Float.of_int (base.Interp.counters.Interp.loads - rle.Interp.counters.Interp.loads)
    /. Float.of_int base.Interp.counters.Interp.loads)
    (Interp.cost base.Interp.counters /. Interp.cost rle.Interp.counters);
  print_endline "overlapping pointers (checks fail, fallback):";
  let base = run "baseline" (fun f -> ignore (P.Pipelines.rle_baseline f)) ~src:0 ~dst:4 in
  let rle = run "RLE+version" (fun f -> ignore (P.Pipelines.rle_pipeline f)) ~src:0 ~dst:4 in
  if Interp.(observation_diff (observe base) (observe rle)) = None then
    print_endline "  -> identical results: the fallback preserved the aliasing semantics"
  else failwith "MISMATCH"
