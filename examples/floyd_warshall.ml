(* Case study: vectorizing floyd-warshall (paper SV-A2, Fig. 17/18).

   The kernel updates `path` in place, so the write to path[i][j] may
   conflict with the reads of path[k][j] — but only on iterations where
   the rows actually coincide.  Classic loop versioning cannot express
   that (its upfront whole-range checks always fail), so neither our
   LLVM-style baseline nor static SLP vectorizes the loop.  Fine-grained
   versioning checks the conflict at run time and runs vector code on
   the safe iterations.

     dune exec examples/floyd_warshall.exe
*)

open Fgv_pssa
module P = Fgv_passes

let n = 12

let source =
  {|
  kernel floyd(float* path, int n) {
    for (int kk = 0; kk < n; kk = kk + 1) {
      for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
          float alt = path[i * n + kk] + path[kk * n + j];
          path[i * n + j] = path[i * n + j] < alt ? path[i * n + j] : alt;
        }
      }
    }
  }
|}

let fresh_mem () =
  Array.init (n * n) (fun i -> Value.VFloat (Float.of_int ((i * 7 mod 23) + 1)))

let run name pipeline =
  let f = Fgv_frontend.Lower_ast.compile_no_restrict source in
  pipeline f;
  let out = Interp.run f ~args:[ Value.VInt 0; Value.VInt n ] ~mem:(fresh_mem ()) in
  let c = out.Interp.counters in
  Printf.printf "%-18s cost=%8.0f  vector stores=%4d  scalar stores=%4d\n" name
    (Interp.cost c) c.Interp.vector_stores c.Interp.stores;
  out

let () =
  Printf.printf "floyd-warshall, %dx%d, in-place shortest paths\n\n" n n;
  let base = run "scalar -O3" (fun f -> ignore (P.Pipelines.o3_novec f)) in
  let o3 = run "classic versioning" (fun f -> ignore (P.Pipelines.o3 f)) in
  let sv = run "SLP (static)" (fun f -> ignore (P.Pipelines.sv f)) in
  let svv = run "SLP + versioning" (fun f -> ignore (P.Pipelines.sv_versioning f)) in
  print_newline ();
  (* all four must agree on the shortest paths *)
  List.iter
    (fun (name, out) ->
      if Interp.(observation_diff (observe base) (observe out)) <> None then
        failwith ("MISMATCH in " ^ name))
    [ ("classic", o3); ("slp", sv); ("slp+v", svv) ];
  Printf.printf "all configurations compute identical shortest paths\n";
  Printf.printf "speedup of SLP+versioning over scalar: %.2fx\n"
    (Interp.cost base.Interp.counters /. Interp.cost svv.Interp.counters);
  Printf.printf
    "(classic loop versioning runs %d vector stores: its upfront checks \
     always fail)\n"
    o3.Interp.counters.Interp.vector_stores
