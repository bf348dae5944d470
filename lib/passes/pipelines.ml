(* Standard optimization pipelines used by the evaluation harness.

   - [o3_novec]: the scalar baseline ("LLVM -O3 without vectorization"):
     constant folding, GVN (including static redundant-load reuse), LICM
     and DCE to a fixpoint.
   - [o3]: the full baseline ("LLVM -O3"): scalar pipeline plus the loop
     vectorizer with classic loop versioning plus the static SLP packer.
   - [sv]: SuperVectorization without versioning: scalar pipeline, then
     unroll-by-VL of innermost loops and the static SLP packer.
   - [sv_versioning]: the paper's configuration: as [sv] but the packer
     consults the fine-grained versioning framework.
   - [rle_*]: the redundant-load-elimination pipelines of Fig. 22.

   Every pipeline is one list of named stages, and every entry point
   takes an optional [?on_pass] observer invoked as [on_pass name f]
   after each individual stage.  The differential-fuzzing oracle uses
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
   The closure returns the work the pass did as labelled counts, which
   feeds the optimization-remark stream ([Pass_applied]/[Pass_skipped],
   see trace.mli).  Every stage runs inside a span and a
   "pass.<stage>.time" timer, so [--stats=json] and the compiletime
   lane's per-row timers give per-pass time without a trace. *)
type stage = string * (unit -> (string * int) list)

let run_stages ?on_pass (f : Ir.func) (stages : stage list) : unit =
  List.iter
    (fun (name, run) ->
      let work =
        Tm.time ("pass." ^ name ^ ".time") (fun () ->
            Tr.with_span ~cat:"pass" name run)
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
    fun () ->
      let work = run () in
      List.iter
        (fun (label, n) -> Tm.incr ~by:n ("pass." ^ name ^ "." ^ label))
        work;
      work )

let st_constfold f : stage =
  ("constfold", fun () -> [ ("folded", Constfold.run f) ])

let st_dce f = counted "dce" (fun () -> [ ("removed", Dce.run f) ])

let st_gvn f = counted "gvn" (fun () -> [ ("deleted", Gvn.run f) ])

let st_licm f = counted "licm" (fun () -> [ ("hoisted", Licm.run f) ])

let cleanup_stages f = [ st_constfold f; st_dce f ]

let scalar_stages f = [ st_constfold f; st_gvn f; st_licm f ] @ cleanup_stages f

let st_ifconv f : stage = ("ifconv", fun () -> [ ("converted", Ifconv.run f) ])

let st_loopvec ~vl f =
  counted "loopvec" (fun () -> [ ("loops", Loopvec.run ~vl f) ])

let st_unroll ~factor f : stage =
  ("unroll", fun () -> [ ("unrolled", Unroll.run ~factor f) ])

(* The packer either consults the versioning framework, promoting its
   checks out of enclosing loops iff [promotion], or packs only what is
   statically independent. *)
let slp_config ~vl ~versioning ~promotion =
  if versioning then
    {
      Slp.default_config with
      vl;
      condopt = { Fgv_versioning.Condopt.default_config with promotion };
    }
  else { Slp.static_config with vl }

let st_slp ~config f =
  counted "slp" (fun () ->
      let vectors, plans = Slp.run ~config f in
      [ ("vectors", vectors); ("plans", plans) ])

let st_rle ~versioning f =
  counted "rle" (fun () ->
      let rs = Rle.run ~versioning f in
      [
        ("eliminated", rs.Rle.loads_eliminated);
        ("groups", rs.Rle.groups_found);
      ])

let st_dse ~versioning f =
  counted "dse" (fun () ->
      let ds = Dse.run ~versioning f in
      (* counted, but not part of the remark's work *)
      Tm.incr ~by:ds.Dse.versioned "pass.dse.versioned";
      [ ("forwarded", ds.Dse.forwarded); ("killed", ds.Dse.killed) ])

let st_distribute ~versioning f =
  counted "distribute" (fun () ->
      let ds = Distribute.run ~versioning f in
      [
        ("split", ds.Distribute.loops_split);
        ("pieces", ds.Distribute.pieces);
      ])

(* The scalar sub-pipeline as a plain function, for harness code that
   composes custom configurations (e.g. the condopt ablation). *)
let scalar_passes ?on_pass f = run_stages ?on_pass f (scalar_stages f)

(* ---------------------------------------------------------- pipelines *)

let pipeline name ?on_pass (f : Ir.func) (stages : stage list) : unit =
  Tm.time ("pipeline." ^ name) (fun () ->
      Tr.with_span ~cat:"pipeline" name (fun () ->
          run_stages ?on_pass f stages))

let o3_novec ?on_pass (f : Ir.func) : unit =
  pipeline "o3_novec" ?on_pass f (scalar_stages f)

let o3 ?(vl = 4) ?on_pass (f : Ir.func) : unit =
  pipeline "o3" ?on_pass f
    (scalar_stages f @ [ st_ifconv f; st_loopvec ~vl f ] @ scalar_stages f)

let sv ?(vl = 4) ?(versioning = false) ?(promotion = false) ?on_pass
    (f : Ir.func) : unit =
  pipeline
    (if versioning then "sv_versioning" else "sv")
    ?on_pass f
    (scalar_stages f
    @ [
        st_ifconv f;
        st_unroll ~factor:vl f;
        st_constfold f;
        st_slp ~config:(slp_config ~vl ~versioning ~promotion) f;
      ]
    (* hoist loop-invariant check code, then clean up the scalar
       remains *)
    @ scalar_stages f)

let sv_versioning ?(vl = 4) ?(promotion = true) ?on_pass f =
  sv ~vl ~versioning:true ~promotion ?on_pass f

(* ------------------------------------------------------ RLE pipelines *)

(* Fig. 22 configuration: scalar pipeline, versioning-based RLE, then
   LICM and GVN run again downstream (the paper reports how much *more*
   work they do after RLE).  Both RLE pipelines begin with exactly
   [o3_novec]'s stages: Fig. 22 counts the downstream work by
   subtracting an [o3_novec] run's counters. *)
let rle_pipeline ?(versioning = true) ?on_pass (f : Ir.func) : unit =
  pipeline "rle" ?on_pass f
    (scalar_stages f
    @ [ st_rle ~versioning f; st_constfold f; st_licm f; st_gvn f ]
    @ cleanup_stages f)

(* The baseline for Fig. 22: the same downstream passes, no RLE. *)
let rle_baseline ?on_pass (f : Ir.func) : unit =
  pipeline "rle_baseline" ?on_pass f
    (scalar_stages f
    @ [ st_constfold f; st_licm f; st_gvn f ]
    @ cleanup_stages f)

(* ----------------------------------------- DSE / distribution pipelines *)

(* Versioned dead-store elimination: scalar pipeline first (so trivially
   dead code doesn't inflate the candidate set), then DSE and the scalar
   passes again to harvest what forwarding exposed.  With [versioning =
   false] only statically provable stores are eliminated. *)
let dse_pipeline ?(versioning = true) ?on_pass (f : Ir.func) : unit =
  pipeline "dse" ?on_pass f
    (scalar_stages f
    @ [ st_dse ~versioning f; st_constfold f; st_licm f; st_gvn f ]
    @ cleanup_stages f)

(* Versioned loop distribution feeding the SLP vectorizer: distribution
   splits the versionable recurrence away, then unroll+SLP vectorize the
   clean sub-loop.  The packer consults versioning iff the distributor
   does, so [versioning = false] is the fully static baseline. *)
let distribute_pipeline ?(vl = 4) ?(versioning = true) ?on_pass (f : Ir.func)
    : unit =
  pipeline "distribute" ?on_pass f
    (scalar_stages f
    @ [
        st_distribute ~versioning f;
        st_ifconv f;
        st_unroll ~factor:vl f;
        st_constfold f;
        st_slp ~config:(slp_config ~vl ~versioning ~promotion:true) f;
      ]
    @ scalar_stages f)

(* Every versioning client in one pipeline: DSE, then distribution, then
   SLP — the "all clients" configuration the fuzz oracle cross-checks. *)
let combined ?(vl = 4) ?(versioning = true) ?on_pass (f : Ir.func) : unit =
  pipeline "combined" ?on_pass f
    (scalar_stages f
    @ [
        st_dse ~versioning f;
        st_distribute ~versioning f;
        st_ifconv f;
        st_unroll ~factor:vl f;
        st_constfold f;
        st_slp ~config:(slp_config ~vl ~versioning ~promotion:true) f;
      ]
    @ scalar_stages f)

(* ------------------------------------------------------- the registry *)

(* The single name → pipeline table every consumer shares: the fgvc
   driver's [-p] flag, the fuzz oracle's sweep, the compile service's
   request decoder, and the doc-lint check that keeps README's pipeline
   table honest all read this list.  Adding a pipeline here is the whole
   registration step (plus a README row, which doc-lint enforces). *)
let registry :
    (string * (?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit)) list
    =
  [
    ("o3-novec", o3_novec);
    ("o3", fun ?on_pass f -> o3 ?on_pass f);
    ("sv", fun ?on_pass f -> sv ?on_pass f);
    ("sv+v", fun ?on_pass f -> sv_versioning ?on_pass f);
    ( "sv+v-nopromo",
      fun ?on_pass f -> sv_versioning ~promotion:false ?on_pass f );
    ("rle", fun ?on_pass f -> rle_pipeline ?on_pass f);
    ("rle-static", fun ?on_pass f -> rle_pipeline ~versioning:false ?on_pass f);
    ("dse", fun ?on_pass f -> dse_pipeline ?on_pass f);
    ("dse-static", fun ?on_pass f -> dse_pipeline ~versioning:false ?on_pass f);
    ("distribute", fun ?on_pass f -> distribute_pipeline ?on_pass f);
    ( "distribute-static",
      fun ?on_pass f -> distribute_pipeline ~versioning:false ?on_pass f );
    ("combined", fun ?on_pass f -> combined ?on_pass f);
  ]

let names = List.map fst registry

let find (name : string) :
    (?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit) option =
  List.assoc_opt name registry

(* A requested pipeline: a registry name, or "none" for the identity.
   The driver's [-p] and the compile service both resolve through here,
   so they accept the same names and reject the rest with the same text. *)
let resolve (name : string) :
    ( ?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit,
      string )
    result =
  if name = "none" then Ok (fun ?on_pass:_ _ -> ())
  else
    match find name with
    | Some apply -> Ok apply
    | None ->
      Error
        (Printf.sprintf "unknown pipeline %s (one of: %s)" name
           (String.concat ", " ("none" :: names)))
