(* Versioned dead-store elimination / store-forwarding, a wish-spec
   client of the versioning framework (DESIGN §13's worked example).

   Two wishes per region, decided by plan inference exactly as RLE's
   load groups are:

   1. *Forwarding*: a load L of the same symbolic address as an earlier
      store S (with [pred L] implying [pred S]) observes S's stored
      value — provided no may-write between them can touch the cell.
      The wish separates L from the intervening writers; under the
      materialized guard the load's uses are redirected to the stored
      value and the load dies.

   2. *Killing*: a store S1 overwritten by a later same-address store S2
      (with [pred S1] implying [pred S2]) is dead — provided no
      may-read between them can observe S1's value.  The wish separates
      the intervening readers from S1; under the guard the original S1
      (the check-pass copy) is deleted while the fallback clone keeps
      the conservative behaviour.

   Forwarding runs first: a same-address load between a kill pair makes
   the kill unconditionally infeasible, but once the load is forwarded
   it is dead (user-less) and no longer counts as a reader, so the kill
   succeeds on the second wish.  With [versioning = false] only wishes
   that already hold statically are granted — the baseline DSE a
   standard compiler performs. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

(* Symbolic address key of a scalar memory access: the linear expression
   of the address plus the accessed type (same keying as RLE). *)
let addr_key (scev : Scev.t) (f : Ir.func) (v : Ir.value_id) =
  let i = Ir.inst f v in
  match i.Ir.kind with
  | Ir.Load { addr } when Ir.lanes_of_ty i.Ir.ty = 1 ->
    let lin = Scev.linexp scev addr in
    Some (Linexp.terms lin, Linexp.constant lin, i.Ir.ty)
  | Ir.Store { addr; value } ->
    let vty = (Ir.inst f value).Ir.ty in
    if Ir.lanes_of_ty vty = 1 then begin
      let lin = Scev.linexp scev addr in
      Some (Linexp.terms lin, Linexp.constant lin, vty)
    end
    else None
  | _ -> None

let is_store f v =
  match (Ir.inst f v).Ir.kind with Ir.Store _ -> true | _ -> false

(* A may-writing region item between two positions. *)
let item_writes f = function
  | Ir.I v -> Ir.may_write_inst (Ir.inst f v)
  | Ir.L lid -> Ir.node_may_write f (Ir.NL lid)

(* ------------------------------------------------------- forward wish *)

type forward = {
  fw_load : Ir.value_id;
  fw_value : Ir.value_id; (* the stored value the load will become *)
  fw_blockers : Ir.node list; (* may-writers strictly between S and L *)
}

(* Redirecting a loop-region load's uses to a value defined *outside*
   the loop is only well-formed for plain instructions: a mu's recur or
   an eta's value must stay loop-local. *)
let forward_target_ok f region users ~value ~load =
  match region with
  | Ir.Rtop -> true
  | Ir.Rloop lid ->
    List.mem value (Ir.defined_values f (Ir.L lid))
    || List.for_all
         (fun u ->
           match (Ir.inst f u).Ir.kind with
           | Ir.Eta _ | Ir.Mu _ -> false
           | _ -> true)
         (users load)

let enumerate_forward (s : V.Api.session) : forward list =
  let f = s.V.Api.s_func in
  let scev = s.V.Api.s_scev in
  let region = s.V.Api.s_region in
  let users = Ir.compute_users f in
  let items = Array.of_list (Ir.region_items f region) in
  let key_of = function
    | Ir.I v -> addr_key scev f v
    | Ir.L _ -> None
  in
  let keys = Array.map key_of items in
  let cands = ref [] in
  Array.iteri
    (fun j item ->
      match item, keys.(j) with
      | Ir.I l, Some key when not (is_store f l) ->
        (* scan backwards for the nearest same-key store; everything
           may-writing on the way is a blocker the wish must remove *)
        let blockers = ref [] in
        let rec back i =
          if i >= 0 then begin
            match items.(i), keys.(i) with
            | Ir.I sv, Some k when is_store f sv && k = key ->
              (* nearest same-address store: forwarding candidate iff
                 the load's execution implies the store's *)
              let si = Ir.inst f sv in
              let stored =
                match si.Ir.kind with
                | Ir.Store { value; _ } -> value
                | _ -> assert false
              in
              if
                Pred.implies (Ir.inst f l).Ir.ipred si.Ir.ipred
                && forward_target_ok f region users ~value:stored ~load:l
              then
                cands :=
                  { fw_load = l; fw_value = stored; fw_blockers = !blockers }
                  :: !cands
            | item, _ ->
              if item_writes f item then
                blockers := Ir.node_of_item item :: !blockers;
              back (i - 1)
          end
        in
        back (j - 1)
      | _ -> ())
    items;
  List.rev !cands

(* ---------------------------------------------------------- kill wish *)

type kill = {
  kl_store : Ir.value_id;
  kl_readers : Ir.node list; (* may-readers strictly between S1 and S2 *)
}

(* A may-reading region item that could observe the killed store's
   value.  Loads without users (e.g. just forwarded) read nothing
   observable and are skipped, like DCE would remove them. *)
let live_reader f users = function
  | Ir.I v ->
    let i = Ir.inst f v in
    Ir.may_read_inst i
    && (match i.Ir.kind with Ir.Load _ -> users v <> [] | _ -> true)
  | Ir.L lid ->
    List.exists
      (fun v ->
        Ir.may_read_inst (Ir.inst f v)
        && (match (Ir.inst f v).Ir.kind with
           | Ir.Load _ -> users v <> []
           | _ -> true))
      (Ir.memory_insts f (Ir.L lid))

let enumerate_kill (s : V.Api.session) : kill list =
  let f = s.V.Api.s_func in
  let scev = s.V.Api.s_scev in
  let region = s.V.Api.s_region in
  let users = Ir.compute_users f in
  let items = Array.of_list (Ir.region_items f region) in
  let key_of = function
    | Ir.I v -> addr_key scev f v
    | Ir.L _ -> None
  in
  let keys = Array.map key_of items in
  let n = Array.length items in
  let cands = ref [] in
  Array.iteri
    (fun i item ->
      match item, keys.(i) with
      | Ir.I s1, Some key when is_store f s1 ->
        (* scan forward for the nearest same-key store; everything
           may-reading on the way must be separated from S1 *)
        let readers = ref [] in
        let rec fwd j =
          if j < n then begin
            match items.(j), keys.(j) with
            | Ir.I s2, Some k when is_store f s2 && k = key ->
              if Pred.implies (Ir.inst f s1).Ir.ipred (Ir.inst f s2).Ir.ipred
              then
                cands :=
                  { kl_store = s1; kl_readers = List.rev !readers } :: !cands
            | item, _ ->
              if live_reader f users item then
                readers := Ir.node_of_item item :: !readers;
              fwd (j + 1)
          end
        in
        fwd (i + 1)
      | _ -> ())
    items;
  List.rev !cands

(* Delete a placed instruction: unplace it wherever it currently sits
   and drop it from the arena (store values have no users). *)
let delete_inst (f : Ir.func) (v : Ir.value_id) =
  let prune items =
    List.filter (function Ir.I x -> x <> v | Ir.L _ -> true) items
  in
  f.Ir.fbody <- prune f.Ir.fbody;
  Ir.iter_loops f (fun lp -> lp.Ir.body <- prune lp.Ir.body);
  Ir.remove_inst f v

(* --------------------------------------------------------------- pass *)

(* Apply the granted candidates with [rewrite] and report how many
   were, under [label].  Candidates granted by a materialized plan also
   count towards "pass.dse.versioned", bumped here, zero included: it is
   a pass counter but not part of the remark's work. *)
let apply_granted ~label ~ok decided rewrite : V.Wish.work =
  let versioned =
    List.filter
      (function _, V.Wish.Granted_versioned _ -> ok | _ -> false)
      decided
  in
  Tm.incr ~by:(List.length versioned) "pass.dse.versioned";
  let granted = List.filter (fun (_, o) -> V.Wish.granted ~ok o) decided in
  List.iter (fun (c, _) -> rewrite c) granted;
  [ (label, List.length granted) ]

(* Wish 1: forward stored values to same-address loads. *)
let forward_spec : forward V.Wish.spec =
  {
    V.Wish.sp_client = "dse-forward";
    sp_loop_upgrade = true;
    sp_enumerate = enumerate_forward;
    sp_want =
      (fun c ->
        V.Wish.Separated { nodes = [ Ir.NI c.fw_load ]; from_ = c.fw_blockers });
    sp_describe = (fun f c -> "forward store to " ^ Ir.value_name f c.fw_load);
    sp_apply =
      (fun s ~ok ~subst decided ->
        let f = s.V.Api.s_func in
        let users = Ir.compute_users f in
        apply_granted ~label:"forwarded" ~ok decided (fun c ->
            let target = subst c.fw_value in
            List.iter
              (fun u ->
                if u <> target then
                  Ir.replace_uses_in_inst f ~user:u ~old_v:c.fw_load
                    ~new_v:target)
              (users c.fw_load)));
  }

(* Wish 2 (a fresh session: the function changed): kill overwritten
   stores whose intervening readers are versioned away. *)
let kill_spec : kill V.Wish.spec =
  {
    V.Wish.sp_client = "dse-kill";
    sp_loop_upgrade = true;
    sp_enumerate = enumerate_kill;
    sp_want =
      (fun c ->
        V.Wish.Separated { nodes = c.kl_readers; from_ = [ Ir.NI c.kl_store ] });
    sp_describe = (fun f c -> "kill store " ^ Ir.value_name f c.kl_store);
    sp_apply =
      (fun s ~ok ~subst:_ decided ->
        apply_granted ~label:"killed" ~ok decided (fun c ->
            delete_inst s.V.Api.s_func c.kl_store));
  }

(* Both wishes on each region in turn, then the region's remark. *)
let run ~versioning (f : Ir.func) : V.Wish.work =
  V.Wish.over_regions f (fun region ->
      let forward = V.Wish.run_spec ~versioning forward_spec f region in
      let kill = V.Wish.run_spec ~versioning kill_spec f region in
      let forwarded = List.assoc "forwarded" forward
      and killed = List.assoc "killed" kill in
      if forwarded > 0 || killed > 0 then
        Tr.remark
          (Tr.anchor
             ?loop:(match region with Ir.Rloop l -> Some l | Ir.Rtop -> None)
             f.Ir.fname)
          (Tr.Store_eliminated { forwarded; killed });
      forward @ kill)
