(* The optimization pipelines, declared once as data.

   [registry] is the one name -> pipeline table: the fgvc driver's [-p],
   the compile service's request decoder, the fuzz oracle's sweep, the
   bench harness, the examples, the tests and the doc-lint check that
   keeps README's pipeline table honest all name pipelines from it.
   Each row is a span/timer label and a list of named stages:

   - "o3-novec": the scalar baseline ("LLVM -O3 without vectorization"):
     constant folding, GVN (including static redundant-load reuse), LICM
     and DCE;
   - "o3": the full baseline ("LLVM -O3"): the scalar pipeline, then the
     loop vectorizer with classic loop versioning plus the static SLP
     packer;
   - "sv": SuperVectorization without versioning: the scalar pipeline,
     then unroll by the vector width and the static SLP packer;
   - "sv+v": the paper's configuration: as "sv", but the packer consults
     the fine-grained versioning framework ("sv+v-nopromo" keeps
     condition promotion off);
   - "rle", "dse", "distribute", "combined": the versioning clients, and
     their "-static" duals, which transform only what holds statically.

   [run] takes an optional [?on_pass] observer invoked as [on_pass name
   f] after each individual stage.  The differential-fuzzing oracle uses
   the hook to run {!Fgv_pssa.Verifier} after every pass, so an IR
   invariant broken by one transform is reported against that transform
   rather than at the end of the pipeline.

   A pass's work is recorded once, in {!Fgv_support.Telemetry} counters
   named "pass.<stage>.<metric>", uniformly with the versioning
   framework's own counters.  Harness code that wants one run's or one
   phase's work reads counter deltas (DESIGN §8). *)

open Fgv_pssa
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

(* ------------------------------------------------------------- stages *)

(* A stage is a named unit of pipeline work; observers hook in between.
   The function returns the work the pass did as labelled counts, which
   feeds the optimization-remark stream ([Pass_applied]/[Pass_skipped],
   see trace.mli).  Every stage runs inside a span and a
   "pass.<stage>.time" timer, so [--stats=json] and the compiletime
   lane's per-row timers give per-pass time without a trace. *)
type stage = string * (Ir.func -> (string * int) list)

let run_stages ?on_pass (f : Ir.func) (stages : stage list) : unit =
  List.iter
    (fun (name, run) ->
      let work =
        Tm.time ("pass." ^ name ^ ".time") (fun () ->
            Tr.with_span ~cat:"pass" name (fun () -> run f))
      in
      if Tr.remarks_recording () then begin
        let a = Tr.anchor f.Ir.fname in
        match List.filter (fun (_, n) -> n > 0) work with
        | [] ->
          Tr.remark a (Tr.Pass_skipped { pass = name; reason = "no opportunities" })
        | done_ -> Tr.remark a (Tr.Pass_applied { pass = name; work = done_ })
      end;
      match on_pass with Some h -> h name f | None -> ())
    stages

(* A stage whose work labels are also its "pass.<name>.<label>"
   counters. *)
let counted name run : stage =
  ( name,
    fun f ->
      let work = run f in
      List.iter
        (fun (label, n) -> Tm.incr ~by:n ("pass." ^ name ^ "." ^ label))
        work;
      work )

let st_constfold : stage =
  ("constfold", fun f -> [ ("folded", Constfold.run f) ])

let st_dce = counted "dce" (fun f -> [ ("removed", Dce.run f) ])

let st_gvn = counted "gvn" (fun f -> [ ("deleted", Gvn.run f) ])

let st_licm = counted "licm" (fun f -> [ ("hoisted", Licm.run f) ])

let cleanup_stages = [ st_constfold; st_dce ]

let scalar_stages = [ st_constfold; st_gvn; st_licm ] @ cleanup_stages

let st_ifconv : stage = ("ifconv", fun f -> [ ("converted", Ifconv.run f) ])

let st_loopvec = counted "loopvec" (fun f -> [ ("loops", Loopvec.run f) ])

let st_unroll : stage = ("unroll", fun f -> [ ("unrolled", Unroll.run f) ])

let st_slp config =
  counted "slp" (fun f ->
      let vectors, plans = Slp.run ~config f in
      [ ("vectors", vectors); ("plans", plans) ])

(* The packer consulting the versioning framework, promoting its checks
   out of enclosing loops iff [promotion]. *)
let versioned_slp ~promotion =
  Some Fgv_versioning.Condopt.(if promotion then Promote else Reduce)

let st_rle ~versioning = counted "rle" (Rle.run ~versioning)

let st_dse ~versioning = counted "dse" (Dse.run ~versioning)

let st_distribute ~versioning =
  counted "distribute" (Distribute.run ~versioning)

(* The vectorizing shape: the scalar pipeline, the client stages [pre],
   unroll by the vector width and pack with [slp], then the scalar
   pipeline again, which hoists loop-invariant check code and cleans up
   the scalar remains. *)
let vectorizing pre slp =
  scalar_stages @ pre
  @ [ st_ifconv; st_unroll; st_constfold; st_slp slp ]
  @ scalar_stages

(* The harvesting shape: the scalar pipeline first (so trivially dead
   code does not inflate a client's candidate set), the client stages,
   then LICM and GVN again to harvest what the client exposed (Fig. 22
   reports how much *more* work they do after RLE).  Every such pipeline
   begins with exactly "o3-novec"'s stages: Fig. 22 counts the
   downstream work by subtracting an "o3-novec" run's counters. *)
let harvesting client =
  scalar_stages @ client @ [ st_constfold; st_licm; st_gvn ] @ cleanup_stages

(* ---------------------------------------------------------- pipelines *)

(* A pipeline: [label] names its span and "pipeline.<label>" timer. *)
type row = { label : string; stages : stage list }

(* Adding a pipeline here is the whole registration step (plus a README
   row, which doc-lint enforces).  The "-static" duals share their
   versioned row's label, so their timers and spans read the same. *)
let registry : (string * row) list =
  [
    ("o3-novec", { label = "o3_novec"; stages = scalar_stages });
    ( "o3",
      { label = "o3";
        stages = scalar_stages @ [ st_ifconv; st_loopvec ] @ scalar_stages } );
    ("sv", { label = "sv"; stages = vectorizing [] None });
    ( "sv+v",
      { label = "sv_versioning";
        stages = vectorizing [] (versioned_slp ~promotion:true) } );
    ( "sv+v-nopromo",
      { label = "sv_versioning";
        stages = vectorizing [] (versioned_slp ~promotion:false) } );
    ("rle", { label = "rle"; stages = harvesting [ st_rle ~versioning:true ] });
    ( "rle-static",
      { label = "rle"; stages = harvesting [ st_rle ~versioning:false ] } );
    ("dse", { label = "dse"; stages = harvesting [ st_dse ~versioning:true ] });
    ( "dse-static",
      { label = "dse"; stages = harvesting [ st_dse ~versioning:false ] } );
    (* distribution splits the versionable recurrence away, then the
       packer vectorizes the clean sub-loop; it consults versioning iff
       the distributor does *)
    ( "distribute",
      { label = "distribute";
        stages =
          vectorizing
            [ st_distribute ~versioning:true ]
            (versioned_slp ~promotion:true) } );
    ( "distribute-static",
      { label = "distribute";
        stages =
          vectorizing [ st_distribute ~versioning:false ] None } );
    (* every versioning client in one pipeline: DSE, then distribution,
       then SLP *)
    ( "combined",
      { label = "combined";
        stages =
          vectorizing
            [ st_dse ~versioning:true; st_distribute ~versioning:true ]
            (versioned_slp ~promotion:true) } );
  ]

let names = List.map fst registry

(* Rows only the bench harness runs, which [-p], the compile service and
   the fuzz sweep do not offer: Fig. 22's control (the RLE pipeline's
   stages without RLE) and the clients figure's static dual of
   "combined". *)
let harness_rows =
  [
    ("rle-baseline", { label = "rle_baseline"; stages = harvesting [] });
    ( "combined-static",
      { label = "combined";
        stages =
          vectorizing
            [ st_dse ~versioning:false; st_distribute ~versioning:false ]
            None } );
  ]

(* The pipeline [name]: a registry or harness row, run inside its
   "pipeline.<label>" timer and span, or "none", the identity.  An
   unknown name is a caller's bug: [Invalid_argument]. *)
let run name : ?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit =
  if name = "none" then fun ?on_pass:_ _ -> ()
  else
    match List.assoc_opt name (registry @ harness_rows) with
    | None -> invalid_arg ("Pipelines.run: unknown pipeline " ^ name)
    | Some row ->
      fun ?on_pass f ->
        Tm.time ("pipeline." ^ row.label) (fun () ->
            Tr.with_span ~cat:"pipeline" row.label (fun () ->
                run_stages ?on_pass f row.stages))

(* A requested pipeline: a registry name, or "none".  The driver's [-p]
   and [--fuzz --pipeline] and the compile service all resolve through
   here, so they accept the same names and reject the rest with the
   same text. *)
let resolve name =
  if name = "none" || List.mem_assoc name registry then Ok (run name)
  else
    Error
      (Printf.sprintf "unknown pipeline %s (one of: %s)" name
         (String.concat ", " ("none" :: names)))
