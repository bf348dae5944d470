(* The declarative wish-spec layer (DESIGN §13).

   Every versioning client follows the same skeleton: enumerate
   candidate transformations, express each one's blocking dependences as
   a *wish* ("make these nodes independent", "separate these readers
   from that store", "guard this loop with these condition atoms"),
   hand the wishes to plan inference, materialize the accepted plans,
   and apply the rewrite only where the wish was granted.  This module
   is that skeleton, so a client is a [spec] — data plus a rewrite —
   and the framework runs it: {!run_spec} on one region, {!run} on
   every region of a function.  RLE, DSE and loop distribution are
   specs.

   Outcome discipline (shared by every client):
   - [Granted_static]    — the wish already holds; the rewrite is safe
                           even if materialization later fails.
   - [Granted_versioned] — a plan was recorded; the rewrite is safe only
                           if the session materializes ([ok = true]).
   - [Denied]            — the wished-away dependence is unconditional
                           (or versioning is disabled); no rewrite. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

type want =
  | Independent of Ir.node list
      (** make the nodes pairwise independent (RLE-shaped) *)
  | Separated of { nodes : Ir.node list; from_ : Ir.node list }
      (** no node of [nodes] may depend on [from_] (DSE-shaped) *)
  | Guarded_loop of {
      loop : Ir.loop_id;
      atoms : Depcond.atom list;
      pairs : (Ir.value_id * Ir.value_id) list;
    }
      (** version the whole loop under the given condition atoms, with
          [pairs] becoming disjoint under the check (distribution /
          classic loop-versioning shape); the session must be on the
          loop's parent region *)

type outcome =
  | Granted_static
  | Granted_versioned of { conds : int }
  | Denied

(* The work a rewrite did, as labelled counts: what a pipeline stage
   returns. *)
type work = (string * int) list

type 'a spec = {
  sp_client : string;  (** telemetry / remark namespace *)
  sp_loop_upgrade : bool;  (** materialize with loop-granularity upgrade *)
  sp_enumerate : Api.session -> 'a list;
      (** candidates, in deterministic program order *)
  sp_want : 'a -> want;
  sp_describe : Ir.func -> 'a -> string;
      (** short label for the remark stream *)
  sp_apply :
    Api.session ->
    ok:bool ->
    subst:(Ir.value_id -> Ir.value_id) ->
    ('a * outcome) list ->
    work;
      (** the rewrite: called once per region after materialization with
          every candidate's outcome, returning the work it did (every
          label, zeros included).  [ok] is false when materialization
          failed — then only [Granted_static] candidates may be
          rewritten.  Uses redirected to a versioned value must go
          through [subst]. *)
}

(* Decide one wish against the session.  Only non-trivial plans are
   recorded (trivial means the independence already holds). *)
let decide ~versioning (s : Api.session) (w : want) : outcome =
  match w with
  | Independent nodes ->
    if Api.already_independent s nodes then Granted_static
    else if not versioning then Denied
    else (
      match Api.request_independence s nodes with
      | Some plan -> Granted_versioned { conds = Plan.conds_count plan }
      | None -> Denied)
  | Separated { nodes; from_ } ->
    if nodes = [] || from_ = [] then Granted_static
    else if not versioning then
      if Api.already_separated s ~nodes ~input_nodes:from_ then Granted_static
      else Denied
    else (
      match Api.request_separation s ~nodes ~input_nodes:from_ with
      | Some plan when Plan.is_trivial plan -> Granted_static
      | Some plan ->
        Api.record_plan s plan;
        Granted_versioned { conds = Plan.conds_count plan }
      | None -> Denied)
  | Guarded_loop { atoms = []; _ } -> Granted_static
  | Guarded_loop { loop; atoms; pairs } ->
    if not versioning then Denied
    else begin
      let conds = Plan.dedup_atoms atoms in
      Api.record_plan s (Plan.whole_loop loop ~conds ~pairs);
      Granted_versioned { conds = List.length conds }
    end

let spec_anchor (s : Api.session) =
  Tr.anchor
    ?loop:(match s.Api.s_region with
          | Ir.Rloop l -> Some l
          | Ir.Rtop -> None)
    s.Api.s_func.Ir.fname

(* Whether a candidate with outcome [o] may be rewritten, given whether
   the session materialized ([ok]): the rule [sp_apply] must follow. *)
let granted ~ok = function
  | Granted_static -> true
  | Granted_versioned _ -> ok
  | Denied -> false

(* Run one spec over one region: enumerate, decide, materialize, apply.
   Returns the work the rewrite reports. *)
let run_spec ~versioning (spec : 'a spec) (f : Ir.func) (region : Ir.region) :
    work =
  let s =
    Api.create ~condopt:{ Condopt.default_config with promotion = true } f
      region
  in
  let anchor = spec_anchor s in
  let decided =
    List.map
      (fun c ->
        let o = decide ~versioning s (spec.sp_want c) in
        let wanted = spec.sp_describe f c in
        (match o with
        | Granted_static ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".granted_static");
          Tr.remark anchor
            (Tr.Wish_granted
               { client = spec.sp_client; wanted; conds = 0; static = true })
        | Granted_versioned { conds } ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".granted_versioned");
          Tr.remark anchor
            (Tr.Wish_granted
               { client = spec.sp_client; wanted; conds; static = false })
        | Denied ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".denied");
          Tr.remark anchor (Tr.Wish_denied { client = spec.sp_client; wanted }));
        (c, o))
      (spec.sp_enumerate s)
  in
  let ok, subst =
    match Api.materialize ~loop_upgrade:spec.sp_loop_upgrade s with
    | Some subst -> (true, subst)
    | None -> (false, fun v -> v)
  in
  spec.sp_apply s ~ok ~subst decided

(* Add [work] into [total] label by label; a new label goes last, so the
   sum keeps the labels in first-seen order. *)
let add_work (total : work) (work : work) : work =
  List.fold_left
    (fun total (label, n) ->
      if List.mem_assoc label total then
        List.map (fun (l, m) -> if l = label then (l, m + n) else (l, m)) total
      else total @ [ (label, n) ])
    total work

(* Run [step] on every region of [f] — the regions as listed before the
   first step runs, every loop before the loops around it and the
   function body last — and sum the work it reports. *)
let over_regions (f : Ir.func) (step : Ir.region -> work) : work =
  List.fold_left (fun total region -> add_work total (step region)) []
    (Ir.regions f)

(* A client that is one spec: run it on every region. *)
let run ~versioning (spec : 'a spec) (f : Ir.func) : work =
  over_regions f (run_spec ~versioning spec f)
