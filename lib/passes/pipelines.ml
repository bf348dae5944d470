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

   Every pipeline is a sequence of named stages, and every entry point
   takes an optional [?on_pass] observer invoked as [on_pass name f]
   after each individual stage.  The differential-fuzzing oracle uses
   the hook to run {!Fgv_pssa.Verifier} after every pass, so an IR
   invariant broken by one transform is reported against that transform
   rather than at the end of the pipeline.

   Every pass reports its work through the {!Fgv_support.Telemetry}
   registry (names "pass.<pass>.<metric>"), uniformly with the
   versioning framework's own counters; the [pass_stats] record remains
   as a cheap per-run view for harness code that compares two runs. *)

open Fgv_pssa
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

type pass_stats = {
  mutable licm_hoisted : int;
  mutable gvn_deleted : int;
  mutable dce_removed : int;
  mutable slp_vectors : int;
  mutable slp_plans : int;
  mutable loops_vectorized : int;
  mutable rle_eliminated : int;
  mutable rle_groups : int;
  mutable dse_forwarded : int;
  mutable dse_killed : int;
  mutable distribute_split : int;
  mutable distribute_pieces : int;
}

let new_pass_stats () =
  {
    licm_hoisted = 0;
    gvn_deleted = 0;
    dce_removed = 0;
    slp_vectors = 0;
    slp_plans = 0;
    loops_vectorized = 0;
    rle_eliminated = 0;
    rle_groups = 0;
    dse_forwarded = 0;
    dse_killed = 0;
    distribute_split = 0;
    distribute_pieces = 0;
  }

(* ------------------------------------------------------------- stages *)

(* A stage is a named unit of pipeline work; observers hook in between.
   The closure returns the work the pass did as labelled counts, which
   feeds the optimization-remark stream ([Pass_applied]/[Pass_skipped],
   see trace.mli).  Every stage runs inside a span and a
   "pass.<stage>.time" timer, so [--stats=json] and the compiletime
   lane's per-row histograms give per-pass time without a trace. *)
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

let st_constfold f : stage =
  ("constfold", fun () -> [ ("folded", Constfold.run f) ])

let st_dce f stats : stage =
  ( "dce",
    fun () ->
      let n = Dce.run f in
      stats.dce_removed <- stats.dce_removed + n;
      Tm.incr ~by:n "pass.dce.removed";
      [ ("removed", n) ] )

let st_gvn f stats : stage =
  ( "gvn",
    fun () ->
      let g = Gvn.run f in
      stats.gvn_deleted <- stats.gvn_deleted + g;
      Tm.incr ~by:g "pass.gvn.deleted";
      [ ("deleted", g) ] )

let st_licm f stats : stage =
  ( "licm",
    fun () ->
      let h = Licm.run f in
      stats.licm_hoisted <- stats.licm_hoisted + h;
      Tm.incr ~by:h "pass.licm.hoisted";
      [ ("hoisted", h) ] )

let cleanup_stages f stats = [ st_constfold f; st_dce f stats ]

let scalar_stages f stats =
  [ st_constfold f; st_gvn f stats; st_licm f stats ] @ cleanup_stages f stats

let st_ifconv f : stage = ("ifconv", fun () -> [ ("converted", Ifconv.run f) ])

let st_loopvec ~vl f stats : stage =
  ( "loopvec",
    fun () ->
      let ls = Loopvec.run ~vl f in
      stats.loops_vectorized <- ls.Loopvec.loops_vectorized;
      Tm.incr ~by:ls.Loopvec.loops_vectorized "pass.loopvec.loops";
      [ ("loops", ls.Loopvec.loops_vectorized) ] )

let st_unroll ~factor f : stage =
  ("unroll", fun () -> [ ("unrolled", Unroll.run ~factor f) ])

let st_slp ~config f stats : stage =
  ( "slp",
    fun () ->
      let n, slp_stats = Slp.run ~config f in
      stats.slp_vectors <- n;
      stats.slp_plans <- slp_stats.Slp.plans_used;
      Tm.incr ~by:n "pass.slp.vectors";
      Tm.incr ~by:slp_stats.Slp.plans_used "pass.slp.plans";
      [ ("vectors", n); ("plans", slp_stats.Slp.plans_used) ] )

let st_rle ~versioning f stats : stage =
  ( "rle",
    fun () ->
      let rs = Rle.run ~versioning f in
      stats.rle_eliminated <- rs.Rle.loads_eliminated;
      stats.rle_groups <- rs.Rle.groups_found;
      Tm.incr ~by:rs.Rle.loads_eliminated "pass.rle.eliminated";
      Tm.incr ~by:rs.Rle.groups_found "pass.rle.groups";
      [ ("eliminated", rs.Rle.loads_eliminated); ("groups", rs.Rle.groups_found) ] )

let st_dse ~versioning f stats : stage =
  ( "dse",
    fun () ->
      let ds = Dse.run ~versioning f in
      stats.dse_forwarded <- stats.dse_forwarded + ds.Dse.forwarded;
      stats.dse_killed <- stats.dse_killed + ds.Dse.killed;
      Tm.incr ~by:ds.Dse.forwarded "pass.dse.forwarded";
      Tm.incr ~by:ds.Dse.killed "pass.dse.killed";
      Tm.incr ~by:ds.Dse.versioned "pass.dse.versioned";
      [ ("forwarded", ds.Dse.forwarded); ("killed", ds.Dse.killed) ] )

let st_distribute ~versioning f stats : stage =
  ( "distribute",
    fun () ->
      let ds = Distribute.run ~versioning f in
      stats.distribute_split <- stats.distribute_split + ds.Distribute.loops_split;
      stats.distribute_pieces <- stats.distribute_pieces + ds.Distribute.pieces;
      Tm.incr ~by:ds.Distribute.loops_split "pass.distribute.split";
      Tm.incr ~by:ds.Distribute.pieces "pass.distribute.pieces";
      [ ("split", ds.Distribute.loops_split); ("pieces", ds.Distribute.pieces) ] )

(* The scalar sub-pipeline as a plain function, for harness code that
   composes custom configurations (e.g. the condopt ablation). *)
let scalar_passes ?on_pass f stats = run_stages ?on_pass f (scalar_stages f stats)

(* ---------------------------------------------------------- pipelines *)

let o3_novec ?on_pass (f : Ir.func) : pass_stats =
  Tm.time "pipeline.o3_novec" (fun () ->
      Tr.with_span ~cat:"pipeline" "o3_novec" @@ fun () ->
      let stats = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f stats);
      stats)

let o3 ?(vl = 4) ?on_pass (f : Ir.func) : pass_stats =
  Tm.time "pipeline.o3" (fun () ->
      Tr.with_span ~cat:"pipeline" "o3" @@ fun () ->
      let stats = new_pass_stats () in
      run_stages ?on_pass f
        (scalar_stages f stats
        @ [ st_ifconv f; st_loopvec ~vl f stats ]
        @ scalar_stages f stats);
      stats)

let sv ?(vl = 4) ?(versioning = false) ?(promotion = false) ?on_pass
    (f : Ir.func) : pass_stats =
  Tm.time (if versioning then "pipeline.sv_versioning" else "pipeline.sv")
    (fun () ->
      Tr.with_span ~cat:"pipeline"
        (if versioning then "sv_versioning" else "sv")
      @@ fun () ->
      let stats = new_pass_stats () in
      let config =
        if versioning then
          {
            Slp.default_config with
            vl;
            condopt =
              { Fgv_versioning.Condopt.default_config with promotion };
          }
        else { Slp.static_config with vl }
      in
      run_stages ?on_pass f
        (scalar_stages f stats
        @ [
            st_ifconv f;
            st_unroll ~factor:vl f;
            st_constfold f;
            st_slp ~config f stats;
          ]
        (* hoist loop-invariant check code, then clean up the scalar
           remains *)
        @ scalar_stages f stats);
      stats)

let sv_versioning ?(vl = 4) ?(promotion = true) ?on_pass f =
  sv ~vl ~versioning:true ~promotion ?on_pass f

(* ------------------------------------------------------ RLE pipelines *)

(* Fig. 22 configuration: scalar pipeline, versioning-based RLE, then
   LICM and GVN run again downstream (the paper reports how much *more*
   work they do after RLE). *)
let rle_pipeline ?(versioning = true) ?on_pass (f : Ir.func) : pass_stats =
  Tm.time "pipeline.rle" (fun () ->
      Tr.with_span ~cat:"pipeline" "rle" @@ fun () ->
      let pre = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f pre);
      (* reset: the paper's counters are about the passes running after RLE *)
      let stats = new_pass_stats () in
      run_stages ?on_pass f
        ([ st_rle ~versioning f stats; st_constfold f ]
        @ [ st_licm f stats; st_gvn f stats ]
        @ cleanup_stages f stats);
      stats)

(* The baseline for Fig. 22: the same downstream passes, no RLE. *)
let rle_baseline ?on_pass (f : Ir.func) : pass_stats =
  Tm.time "pipeline.rle_baseline" (fun () ->
      Tr.with_span ~cat:"pipeline" "rle_baseline" @@ fun () ->
      let pre = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f pre);
      let stats = new_pass_stats () in
      run_stages ?on_pass f
        ([ st_constfold f; st_licm f stats; st_gvn f stats ]
        @ cleanup_stages f stats);
      stats)

(* ----------------------------------------- DSE / distribution pipelines *)

(* Versioned dead-store elimination: scalar pipeline first (so trivially
   dead code doesn't inflate the candidate set), then DSE and the scalar
   passes again to harvest what forwarding exposed.  With [versioning =
   false] only statically provable stores are eliminated. *)
let dse_pipeline ?(versioning = true) ?on_pass (f : Ir.func) : pass_stats =
  Tm.time "pipeline.dse" (fun () ->
      Tr.with_span ~cat:"pipeline" "dse" @@ fun () ->
      let pre = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f pre);
      let stats = new_pass_stats () in
      run_stages ?on_pass f
        ([ st_dse ~versioning f stats; st_constfold f ]
        @ [ st_licm f stats; st_gvn f stats ]
        @ cleanup_stages f stats);
      stats)

(* Versioned loop distribution feeding the SLP vectorizer: distribution
   splits the versionable recurrence away, then unroll+SLP vectorize the
   clean sub-loop.  The packer consults versioning iff the distributor
   does, so [versioning = false] is the fully static baseline. *)
let distribute_pipeline ?(vl = 4) ?(versioning = true) ?on_pass (f : Ir.func)
    : pass_stats =
  Tm.time "pipeline.distribute" (fun () ->
      Tr.with_span ~cat:"pipeline" "distribute" @@ fun () ->
      let pre = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f pre);
      let stats = new_pass_stats () in
      let config =
        if versioning then
          {
            Slp.default_config with
            vl;
            condopt =
              { Fgv_versioning.Condopt.default_config with promotion = true };
          }
        else { Slp.static_config with vl }
      in
      run_stages ?on_pass f
        ([
           st_distribute ~versioning f stats;
           st_ifconv f;
           st_unroll ~factor:vl f;
           st_constfold f;
           st_slp ~config f stats;
         ]
        @ scalar_stages f stats);
      stats)

(* Every versioning client in one pipeline: DSE, then distribution, then
   SLP — the "all clients" configuration the fuzz oracle cross-checks. *)
let combined ?(vl = 4) ?(versioning = true) ?on_pass (f : Ir.func) :
    pass_stats =
  Tm.time "pipeline.combined" (fun () ->
      Tr.with_span ~cat:"pipeline" "combined" @@ fun () ->
      let pre = new_pass_stats () in
      run_stages ?on_pass f (scalar_stages f pre);
      let stats = new_pass_stats () in
      let config =
        if versioning then
          {
            Slp.default_config with
            vl;
            condopt =
              { Fgv_versioning.Condopt.default_config with promotion = true };
          }
        else { Slp.static_config with vl }
      in
      run_stages ?on_pass f
        ([
           st_dse ~versioning f stats;
           st_distribute ~versioning f stats;
           st_ifconv f;
           st_unroll ~factor:vl f;
           st_constfold f;
           st_slp ~config f stats;
         ]
        @ scalar_stages f stats);
      stats)

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
    ("o3-novec", fun ?on_pass f -> ignore (o3_novec ?on_pass f));
    ("o3", fun ?on_pass f -> ignore (o3 ?on_pass f));
    ("sv", fun ?on_pass f -> ignore (sv ?on_pass f));
    ("sv+v", fun ?on_pass f -> ignore (sv_versioning ?on_pass f));
    ( "sv+v-nopromo",
      fun ?on_pass f -> ignore (sv_versioning ~promotion:false ?on_pass f) );
    ("rle", fun ?on_pass f -> ignore (rle_pipeline ?on_pass f));
    ( "rle-static",
      fun ?on_pass f -> ignore (rle_pipeline ~versioning:false ?on_pass f) );
    ("dse", fun ?on_pass f -> ignore (dse_pipeline ?on_pass f));
    ( "dse-static",
      fun ?on_pass f -> ignore (dse_pipeline ~versioning:false ?on_pass f) );
    ("distribute", fun ?on_pass f -> ignore (distribute_pipeline ?on_pass f));
    ( "distribute-static",
      fun ?on_pass f ->
        ignore (distribute_pipeline ~versioning:false ?on_pass f) );
    ("combined", fun ?on_pass f -> ignore (combined ?on_pass f));
  ]

let names = List.map fst registry

let find (name : string) :
    (?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit) option =
  List.assoc_opt name registry
