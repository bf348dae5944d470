(* Redundant load elimination via versioning (paper SV-B).

   A group of same-address, same-type loads is redundant when the loads
   are all independent: independence means no intervening may-write can
   affect any of them, so they all observe the same value.  The pass:

   1. collects groups of region-level loads on equal symbolic addresses,
      with a leader whose execution is implied by every member;
   2. groups that are not already independent are handed to the
      versioning framework (and dropped when versioning is infeasible);
   3. plans are materialized;
   4. every other load's uses are redirected to the leader (to its
      versioned image, where materialization cloned it); the dead loads
      are left for DCE.

   With [versioning = false] the pass only eliminates groups that are
   *statically* independent — the baseline a standard compiler achieves. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning

(* Region-level scalar loads grouped by symbolic address and type, each
   group in program order and the groups in the program order of their
   first load (a fold over the table would hand the plans and remarks
   its hash order). *)
let load_groups (f : Ir.func) (scev : Scev.t) (region : Ir.region) :
    Ir.value_id list list =
  let items = Ir.region_items f region in
  let loads =
    List.filter_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).kind with
          | Ir.Load { addr } when Ir.lanes_of_ty (Ir.inst f v).ty = 1 ->
            Some (v, Scev.linexp scev addr, (Ir.inst f v).ty)
          | _ -> None)
        | Ir.L _ -> None)
      items
  in
  let tbl = Hashtbl.create 8 and keys = ref [] in
  List.iter
    (fun (v, lin, ty) ->
      let key = (Linexp.terms lin, Linexp.constant lin, ty) in
      match Hashtbl.find_opt tbl key with
      | Some vs -> Hashtbl.replace tbl key (v :: vs)
      | None ->
        Hashtbl.replace tbl key [ v ];
        keys := key :: !keys)
    loads;
  List.filter_map
    (fun key ->
      match Hashtbl.find tbl key with
      | _ :: _ :: _ as vs -> Some (List.rev vs)
      | _ -> None)
    (List.rev !keys)

(* The leader: the first member, provided every member's predicate
   implies its execution. *)
let leader_of (f : Ir.func) (group : Ir.value_id list) : Ir.value_id option =
  match group with
  | first :: rest ->
    let p0 = (Ir.inst f first).ipred in
    if List.for_all (fun v -> Pred.implies (Ir.inst f v).ipred p0) rest then
      Some first
    else None
  | [] -> None

(* RLE expressed as a wish spec (DESIGN §13): each load group wishes
   its members pairwise independent; granted groups collapse onto the
   leader.  The redirect target must go through [subst] — the leader's
   outermost versioning phi is the value valid on every path, since the
   raw leader's predicate was narrowed by the checks.  When
   materialization failed ([ok = false]), only the groups that were
   independent *without* versioning may be collapsed.  The work is the
   loads eliminated and the groups considered. *)
let spec : (Ir.value_id * Ir.value_id list) V.Wish.spec =
  {
    V.Wish.sp_client = "rle";
    sp_loop_upgrade = true;
    sp_enumerate =
      (fun s ->
        let f = s.V.Api.s_func in
        List.filter_map
          (fun group ->
            match leader_of f group with
            | None -> None
            | Some leader -> Some (leader, group))
          (load_groups f s.V.Api.s_scev s.V.Api.s_region));
    sp_want =
      (fun (_, group) -> V.Wish.Independent (List.map (fun v -> Ir.NI v) group));
    sp_describe =
      (fun f (leader, group) ->
        Printf.sprintf "independence of %d loads at %s" (List.length group)
          (Ir.value_name f leader));
    sp_apply =
      (fun s ~ok ~subst decided ->
        let f = s.V.Api.s_func in
        let users = Ir.compute_users f in
        let eliminated = ref 0 in
        List.iter
          (fun ((leader, group), o) ->
            if V.Wish.granted ~ok o then begin
              let target = subst leader in
              List.iter
                (fun l ->
                  if l <> leader then begin
                    List.iter
                      (fun u ->
                        if u <> target then
                          Ir.replace_uses_in_inst f ~user:u ~old_v:l
                            ~new_v:target)
                      (users l);
                    incr eliminated
                  end)
                group
            end)
          decided;
        [ ("eliminated", !eliminated); ("groups", List.length decided) ]);
  }

let run ~versioning = V.Wish.run ~versioning spec
