(* Versioned loop distribution, a wish-spec client of the versioning
   framework.

   An innermost straight-line loop with several stores is split into
   one sub-loop per independent *statement group* — the operand closure
   of each store, plus one group keeping every value that escapes the
   loop — provided the groups touch disjoint memory.  Where disjointness
   is only conditional (two streams that may overlap at run time), the
   wish asks for the whole loop to be versioned under the intersection
   atoms: the distributed sub-loops run on the check-pass path, the
   fallback clone keeps the original fused loop.  s222-shaped kernels
   (an unvectorizable recurrence fused with a clean stream) are the
   target: after distribution the clean sub-loop vectorizes on its own.

   Legality is wholesale reordering: sub-loop A runs *all* its
   iterations before sub-loop B runs any, so every cross-group
   write/access pair must be disjoint over the loop's whole iteration
   space (ranges promoted out of the distributed loop).  Unlike
   loop-vectorization legality, a constant dependence distance does NOT
   make a pair safe here, and any pair that cannot be proven or checked
   disjoint simply fuses the two groups back together — merging is
   always available, so distribution is never unsound, only smaller. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning
module Tr = Fgv_support.Trace

type stats = {
  mutable loops_split : int;
  mutable pieces : int;
}

let new_stats () = { loops_split = 0; pieces = 0 }

(* One distributable statement group: the stores anchoring it and the
   operand closure (in-loop values) it needs to compute them. *)
type group = {
  g_anchors : Ir.value_id list; (* body order *)
  g_members : (Ir.value_id, unit) Hashtbl.t;
}

type candidate = {
  dl_loop : Ir.loop_id;
  dl_clones : group list; (* non-keeper groups, body order *)
  dl_keeper : (Ir.value_id, unit) Hashtbl.t; (* keeper group's closure *)
  dl_atoms : Depcond.atom list;
  dl_pairs : (Ir.value_id * Ir.value_id) list;
  dl_pieces : int;
}

(* Union-find over unit indices, merging toward the lower index so
   group order stays the body order of the first anchor. *)
let uf_find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let r = go i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let uf_union parent i j =
  let a = uf_find parent i and b = uf_find parent j in
  if a <> b then parent.(max a b) <- min a b

let analyze (s : V.Api.session) (lid : Ir.loop_id) : candidate option =
  let f = s.V.Api.s_func in
  let scev = s.V.Api.s_scev in
  let lp = Ir.loop f lid in
  let body_vals =
    List.filter_map (function Ir.I v -> Some v | Ir.L _ -> None) lp.Ir.body
  in
  (* innermost, straight-line, call-free, with at least two stores *)
  if List.length body_vals <> List.length lp.Ir.body then None
  else if
    List.exists
      (fun v ->
        match (Ir.inst f v).Ir.kind with Ir.Call _ -> true | _ -> false)
      body_vals
  then None
  else begin
    let stores =
      List.filter
        (fun v ->
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> true | _ -> false)
        body_vals
    in
    if List.length stores < 2 then None
    else begin
      let local = Hashtbl.create 64 in
      List.iter (fun v -> Hashtbl.replace local v ()) lp.Ir.mus;
      List.iter (fun v -> Hashtbl.replace local v ()) body_vals;
      (* the loop's own control chain belongs to every group: each
         sub-loop re-evaluates the same guard/continuation *)
      let cont_lits =
        List.filter (Hashtbl.mem local)
          (Pred.literals lp.Ir.cont @ Pred.literals lp.Ir.lpred)
      in
      let closure seeds =
        let tbl = Hashtbl.create 32 in
        let rec go v =
          if Hashtbl.mem local v && not (Hashtbl.mem tbl v) then begin
            Hashtbl.replace tbl v ();
            List.iter go (Ir.all_operands (Ir.inst f v))
          end
        in
        List.iter go seeds;
        tbl
      in
      (* values observed outside the loop (through etas, or as a nested
         use anywhere else) must stay in the group that keeps the
         original loop identity, so external users keep their producer *)
      let users = Ir.compute_users f in
      let escapes =
        List.filter
          (fun v ->
            List.exists (fun u -> not (Hashtbl.mem local u)) (users v))
          (lp.Ir.mus @ body_vals)
      in
      let store_units =
        List.map (fun sv -> (Some sv, closure (sv :: cont_lits))) stores
      in
      let units =
        Array.of_list
          (store_units
          @
          if escapes = [] then []
          else [ (None, closure (escapes @ cont_lits)) ])
      in
      let n = Array.length units in
      let anchors_of i =
        match units.(i) with Some sv, _ -> [ sv ] | None, _ -> []
      in
      let loads_of i =
        let _, cl = units.(i) in
        List.filter
          (fun v ->
            Hashtbl.mem cl v
            && match (Ir.inst f v).Ir.kind with Ir.Load _ -> true | _ -> false)
          body_vals
      in
      (* memoized whole-loop ranges of each access *)
      let promo = Hashtbl.create 16 in
      let promoted v =
        match Hashtbl.find_opt promo v with
        | Some r -> r
        | None ->
          let r =
            match Scev.range_of_access scev v with
            | None -> None
            | Some r -> Scev.promote_range scev ~out_of:(fun l -> l = lid) r
          in
          Hashtbl.add promo v r;
          r
      in
      let raw_disjoint w x =
        match Scev.range_of_access scev w, Scev.range_of_access scev x with
        | Some rw, Some rx -> Alias.relate f rw rx = Alias.Disjoint
        | _ -> false
      in
      let parent = Array.init n (fun i -> i) in
      let conditional = ref [] in
      (* every ordered cross-unit pair (write of u) x (access of v) must
         be disjoint over the whole loop, or checkable, or the units
         fuse *)
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then
            List.iter
              (fun w ->
                List.iter
                  (fun x ->
                    if x <> w then begin
                      match promoted w, promoted x with
                      | Some rw, Some rx -> (
                        match Alias.relate f rw rx with
                        | Alias.Disjoint -> ()
                        | Alias.Overlap -> uf_union parent u v
                        | Alias.Unknown ->
                          conditional :=
                            (u, v, Depcond.Aintersect (rw, rx), (w, x))
                            :: !conditional)
                      | _ -> if not (raw_disjoint w x) then uf_union parent u v
                    end)
                  (anchors_of v @ loads_of v))
              (anchors_of u)
        done
      done;
      (* conditional pairs between units that fused anyway need no
         check: intra-group order is preserved *)
      let atoms = ref [] and pairs = ref [] in
      List.iter
        (fun (u, v, atom, pair) ->
          if uf_find parent u <> uf_find parent v then begin
            atoms := atom :: !atoms;
            pairs := pair :: !pairs
          end)
        (List.rev !conditional);
      let roots =
        List.sort_uniq compare
          (List.init n (fun i -> uf_find parent i))
      in
      if List.length roots < 2 then None
      else begin
        let group_of root =
          let anchors = ref [] and members = Hashtbl.create 32 in
          Array.iteri
            (fun i (anchor, cl) ->
              if uf_find parent i = root then begin
                (match anchor with
                | Some sv -> anchors := sv :: !anchors
                | None -> ());
                Hashtbl.iter (fun v () -> Hashtbl.replace members v ()) cl
              end)
            units;
          { g_anchors = List.rev !anchors; g_members = members }
        in
        (* the keeper (the group that remains the original loop) is the
           escaping group if any, else the last store's group — unit
           [n - 1] in both cases *)
        let keeper_root = uf_find parent (n - 1) in
        let clone_roots = List.filter (fun r -> r <> keeper_root) roots in
        let keeper = group_of keeper_root in
        Some
          {
            dl_loop = lid;
            dl_clones = List.map group_of clone_roots;
            dl_keeper = keeper.g_members;
            dl_atoms = V.Plan.dedup_atoms (List.rev !atoms);
            dl_pairs = List.rev !pairs;
            dl_pieces = List.length roots;
          }
      end
    end
  end

(* Prune a loop in place to the given member set, dropping removed
   values from the arena (nothing outside the member set uses them). *)
let prune_loop (f : Ir.func) (lp : Ir.loop) keep =
  let kept_mus = List.filter keep lp.Ir.mus in
  List.iter
    (fun m -> if not (keep m) then Ir.remove_inst f m)
    lp.Ir.mus;
  lp.Ir.mus <- kept_mus;
  let kept_body =
    List.filter (function Ir.I v -> keep v | Ir.L _ -> true) lp.Ir.body
  in
  List.iter
    (function
      | Ir.I v -> if not (keep v) then Ir.remove_inst f v
      | Ir.L _ -> ())
    lp.Ir.body;
  lp.Ir.body <- kept_body

let apply_candidate (f : Ir.func) (region : Ir.region) (c : candidate) =
  (* clone one pruned copy of the loop per non-keeper group, placed
     before the original so group order follows body order; the clones
     inherit the (possibly check-narrowed) guard through [clone_item] *)
  let clones =
    List.map
      (fun g ->
        let remap = Hashtbl.create 64 in
        let item = Ir.clone_item f remap (Ir.L c.dl_loop) in
        let inv = Hashtbl.create 64 in
        Hashtbl.iter (fun o n -> Hashtbl.replace inv n o) remap;
        let keep v' =
          match Hashtbl.find_opt inv v' with
          | Some ov -> Hashtbl.mem g.g_members ov
          | None -> true
        in
        (match item with
        | Ir.L nl -> prune_loop f (Ir.loop f nl) keep
        | Ir.I _ -> assert false);
        item)
      c.dl_clones
  in
  let rec splice acc = function
    | [] -> List.rev acc
    | (Ir.L l as it) :: rest when l = c.dl_loop ->
      List.rev_append acc (clones @ (it :: rest))
    | it :: rest -> splice (it :: acc) rest
  in
  Ir.set_region_items f region (splice [] (Ir.region_items f region));
  (* the original loop becomes the keeper piece *)
  prune_loop f (Ir.loop f c.dl_loop) (Hashtbl.mem c.dl_keeper)

let run_region ?(versioning = true) (f : Ir.func) (region : Ir.region)
    (stats : stats) : unit =
  let spec =
    {
      V.Wish.sp_client = "distribute";
      (* the wish already targets whole-loop granularity *)
      sp_loop_upgrade = false;
      sp_enumerate =
        (fun s ->
          List.filter_map
            (function Ir.I _ -> None | Ir.L lid -> analyze s lid)
            (Ir.region_items s.V.Api.s_func s.V.Api.s_region));
      sp_want =
        (fun _ c ->
          V.Wish.Guarded_loop
            { loop = c.dl_loop; atoms = c.dl_atoms; pairs = c.dl_pairs });
      sp_describe =
        (fun c ->
          Printf.sprintf "distribute L%d into %d sub-loops" c.dl_loop
            c.dl_pieces);
      sp_apply =
        (fun s ~ok ~subst:_ decided ->
          let f = s.V.Api.s_func in
          List.iter
            (fun (c, o) ->
              if V.Wish.granted ~ok o then begin
                apply_candidate f s.V.Api.s_region c;
                stats.loops_split <- stats.loops_split + 1;
                stats.pieces <- stats.pieces + c.dl_pieces;
                Tr.remark
                  (Tr.anchor ~loop:c.dl_loop f.Ir.fname)
                  (Tr.Loop_distributed
                     {
                       pieces = c.dl_pieces;
                       conds =
                         (match o with
                         | V.Wish.Granted_versioned { conds } -> conds
                         | _ -> 0);
                     })
              end)
            decided);
    }
  in
  ignore (V.Wish.run_spec ~versioning spec f region)

let run ?(versioning = true) (f : Ir.func) : stats =
  let stats = new_stats () in
  List.iter
    (fun region -> run_region ~versioning f region stats)
    (Ir.regions f);
  stats
