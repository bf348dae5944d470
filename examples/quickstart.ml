(* Quickstart: the paper's running example (Fig. 1), end to end.

   Builds the function with the mini-C frontend, asks the versioning
   framework to make the two stores to Y independent, prints the
   inferred (nested) plan and the materialized program, and runs both
   versions on aliasing and non-aliasing inputs to show they behave
   identically while the fast path executes when the pointers are
   disjoint.

     dune exec examples/quickstart.exe
*)

open Fgv_pssa
module V = Fgv_versioning

let source =
  {|
  kernel fig1(float* X, float* Y) {
    Y[0] = 0.0;
    if (X[0] != 0.0) { cold_func(); }
    Y[1] = 0.0;
  }
|}

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

let run_case f ~x_addr ~y_addr =
  let mem = Array.init 8 (fun _ -> Value.VFloat 1.0) in
  let out =
    Interp.run f ~args:[ Value.VInt x_addr; Value.VInt y_addr ] ~mem
  in
  Printf.printf "  X=%d Y=%d:  cold_func calls = %d, skipped insts = %d\n"
    x_addr y_addr
    (List.length out.Interp.call_trace)
    out.Interp.counters.Interp.skipped

let compile pipeline =
  match Fgv_frontend.Compile.source pipeline source with
  | Ok f -> f
  | Error e -> failwith (Fgv_frontend.Compile.message e)

(* The versioning request as the compile's pipeline: make the two stores
   to Y independent and materialize the plan. *)
let version f =
  let session = V.Api.create f Ir.Rtop in
  (match V.Api.request_independence session (stores f) with
  | None -> failwith "versioning infeasible?!"
  | Some plan ->
    print_endline "--- inferred nested versioning plan (cf. Fig. 12) ---";
    print_string (V.Plan.to_string session.V.Api.s_graph plan));
  ignore (V.Api.materialize session)

let () =
  let original = compile ignore in
  print_endline "--- original program (predicated SSA) ---";
  Printer.print original;

  let f = compile version in
  print_endline "--- versioned program (cf. Fig. 15b) ---";
  Printer.print f;

  print_endline "--- lowered to SSA with control flow (cf. Fig. 15c) ---";
  print_string (Fgv_cfg.Cir.to_string (Fgv_cfg.Lower.lower f));

  print_endline "--- behaviour (original vs. versioned) ---";
  print_endline " original:";
  run_case original ~x_addr:4 ~y_addr:1;
  run_case original ~x_addr:3 ~y_addr:3;
  print_endline " versioned:";
  run_case f ~x_addr:4 ~y_addr:1;
  (* no alias: fast path *)
  run_case f ~x_addr:3 ~y_addr:3;
  (* X = Y: checks fail, fallback path preserves the original semantics *)
  print_endline "done."
