(* Nested versioning (paper SIII-B): when the run-time checks themselves
   depend on the code being versioned, the framework infers a secondary
   plan that makes the checks computable first.

   This example requests independence of two stores separated by a
   conditional call whose condition is loaded from possibly-aliasing
   memory — the exact shape of the paper's running example — and also a
   deeper variant where the condition chain is longer, producing a
   secondary plan whose own conditions need hoisting.

     dune exec examples/nested_versioning.exe
*)

open Fgv_pssa
module V = Fgv_versioning

let stores f =
  List.filter_map
    (fun item ->
      match item with
      | Ir.I v -> (
        match (Ir.inst f v).Ir.kind with
        | Ir.Store _ -> Some (Ir.NI v)
        | _ -> None)
      | Ir.L _ -> None)
    f.Ir.fbody

let compile source pipeline =
  match Fgv_frontend.Compile.source pipeline source with
  | Ok f -> f
  | Error e -> failwith (Fgv_frontend.Compile.message e)

let demo name source =
  Printf.printf "=== %s ===\n" name;
  let versioned = ref false in
  let f =
    compile source (fun f ->
        let session = V.Api.create f Ir.Rtop in
        match V.Api.request_independence session (stores f) with
        | None -> print_endline "infeasible"
        | Some plan ->
          let rec depth (p : V.Plan.t) =
            1
            + List.fold_left (fun a s -> max a (depth s)) 0
                p.V.Plan.p_secondaries
          in
          Printf.printf "plan depth: %d level(s) of versioning\n" (depth plan);
          print_string (V.Plan.to_string session.V.Api.s_graph plan);
          ignore (V.Api.materialize session);
          versioned := true)
  in
  if !versioned then begin
    (* behavioural check under aliasing and non-aliasing inputs *)
    let reference = compile source ignore in
    List.iter
      (fun args ->
        let mem () = Array.init 16 (fun i -> Value.VFloat (Float.of_int i)) in
        let a = Interp.run reference ~args ~mem:(mem ()) in
        let b = Interp.run f ~args ~mem:(mem ()) in
        if Interp.(observation_diff (observe a) (observe b)) <> None then
          failwith "behaviour changed!")
      [ [ Value.VInt 8; Value.VInt 1 ]; [ Value.VInt 2; Value.VInt 2 ];
        [ Value.VInt 3; Value.VInt 2 ] ];
    print_endline "verified: identical behaviour on aliasing and disjoint inputs"
  end;
  print_newline ()

let () =
  demo "running example (one secondary level)"
    {|
    kernel fig1(float* X, float* Y) {
      Y[0] = 0.0;
      if (X[0] != 0.0) { cold_func(); }
      Y[1] = 0.0;
    }
  |};
  demo "longer condition chain"
    {|
    kernel deep(float* X, float* Y) {
      Y[0] = 1.0;
      float t = X[0] * 2.0 + X[1];
      if (t > 3.0) { cold_func(); }
      Y[1] = 2.0;
    }
  |}
