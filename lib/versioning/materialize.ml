(* Materialization of versioning plans (Fig. 14 of the paper).

   Plans are lowered level by level, deepest secondaries first.  At each
   level:

   A. for every unique set of versioning conditions, the instructions
      computing the run-time check are emitted immediately before the
      first versioned node of that set.  When the check reads values
      defined further down, it computes over a PRIVATE CLONE of their
      register chain rather than moving original code; any memory the
      cloned chain reads "too early" is covered by adding the crossing
      dependence's own condition to the check (see phase A below for the
      correctness argument);
   B. every versioned node is cloned; the original's predicate is
      strengthened with the check and the clone's with its negation;
      a versioning phi joins the two values (for loops, one phi per
      live-out eta);
   C. uses are redirected per Fig. 14 lines 44-60: an original user
      versioned under a superset of conditions keeps the original value;
      a cloned user whose conditions are a subset of the value's uses
      the cloned value; every other user reads the versioning phi;
      phi arms whose gates contradict the asserted conditions are
      dropped on the success side (Fig. 14's last step);
   D. scoped-independence facts (the paper's scoped-noalias metadata,
      SIV-B) are recorded so later analyses see the established
      independence; dead versioning phis are left to the pipeline DCE.

   Within one plan tree the parent's conditions deliberately read the
   original (check-passing side) values — the parent check's outcome is
   irrelevant whenever a secondary check failed.  Across independent
   plan trees, values versioned earlier are substituted with their
   versioning phis. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

(* Remark anchor for materialization: the region's function and loop. *)
let mat_anchor (f : Ir.func) (region : Ir.region) =
  Tr.anchor
    ?loop:(match region with Ir.Rloop l -> Some l | Ir.Rtop -> None)
    f.Ir.fname

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------ emission *)

type emitter = { ef : Ir.func; mutable acc : Ir.item list (* reversed *) }

let emit ?(name = "") em kind ty =
  let i = Ir.new_inst ~name em.ef ~kind ~ty ~pred:Pred.tru in
  em.acc <- Ir.I i.id :: em.acc;
  i.id

let emitted em = List.rev em.acc

let materialize_pred em (p : Pred.t) : Ir.value_id =
  let rec go p =
    match Pred.view p with
    | Ptrue -> emit em (Ir.Const (Cbool true)) Tbool
    | Pfalse -> emit em (Ir.Const (Cbool false)) Tbool
    | Plit { v; positive } ->
      if positive then v
      else
        let fls = emit em (Ir.Const (Cbool false)) Tbool in
        emit ~name:"not" em (Ir.Cmp (Eq, v, fls)) Tbool
    | Pand ps ->
      let vs = List.map go ps in
      List.fold_left
        (fun acc v -> emit em (Ir.Binop (Band, acc, v)) Tbool)
        (List.hd vs) (List.tl vs)
    | Por ps ->
      let vs = List.map go ps in
      List.fold_left
        (fun acc v -> emit em (Ir.Binop (Bor, acc, v)) Tbool)
        (List.hd vs) (List.tl vs)
  in
  go p

let materialize_linexp em (e : Linexp.t) : Ir.value_id =
  match Linexp.terms e, Linexp.constant e with
  | [ (v, 1) ], 0 -> v
  | terms, konst ->
    let start = emit em (Ir.Const (Cint konst)) Tint in
    List.fold_left
      (fun acc (v, k) ->
        let term =
          if k = 1 then v
          else
            let kc = emit em (Ir.Const (Cint k)) Tint in
            emit em (Ir.Binop (Mul, v, kc)) Tint
        in
        emit em (Ir.Binop (Add, acc, term)) Tint)
      start terms

(* Emit code computing whether the atom (a dependence condition) holds. *)
let materialize_atom em (atom : Depcond.atom) : Ir.value_id =
  match atom with
  | Depcond.Apred p -> materialize_pred em p
  | Depcond.Aintersect (r1, r2) ->
    let lo1 = materialize_linexp em r1.Scev.lo in
    let hi1 = materialize_linexp em r1.Scev.hi in
    let lo2 = materialize_linexp em r2.Scev.lo in
    let hi2 = materialize_linexp em r2.Scev.hi in
    (* half-open overlap: lo1 < hi2 && lo2 < hi1 *)
    let c1 = emit em (Ir.Cmp (Lt, lo1, hi2)) Tbool in
    let c2 = emit em (Ir.Cmp (Lt, lo2, hi1)) Tbool in
    emit ~name:"ovl" em (Ir.Binop (Band, c1, c2)) Tbool

(* chk = true iff *none* of the conditions hold *)
let materialize_check em atoms : Ir.value_id =
  match atoms with
  | [] -> emit ~name:"chk" em (Ir.Const (Cbool true)) Tbool
  | _ ->
    let vs = List.map (materialize_atom em) atoms in
    let any =
      List.fold_left
        (fun acc v -> emit em (Ir.Binop (Bor, acc, v)) Tbool)
        (List.hd vs) (List.tl vs)
    in
    let fls = emit em (Ir.Const (Cbool false)) Tbool in
    emit ~name:"chk" em (Ir.Cmp (Eq, any, fls)) Tbool

(* ----------------------------------------------------- substitutions *)

let subst_linexp s e =
  List.fold_left
    (fun acc (v, k) -> Linexp.add acc (Linexp.scale k (Linexp.of_value (s v))))
    (Linexp.const (Linexp.constant e))
    (Linexp.terms e)

let subst_atom s = function
  | Depcond.Apred p -> Depcond.Apred (Pred.rename s p)
  | Depcond.Aintersect (r1, r2) ->
    let sr r = { Scev.lo = subst_linexp s r.Scev.lo; hi = subst_linexp s r.Scev.hi } in
    Depcond.Aintersect (sr r1, sr r2)

(* ------------------------------------------------------ item utilities *)

let item_matches node item =
  match node, item with
  | Ir.NI v, Ir.I w -> v = w
  | Ir.NL l, Ir.L m -> l = m
  | _ -> false

let index_of_node items node =
  let rec go k = function
    | [] -> None
    | item :: rest -> if item_matches node item then Some k else go (k + 1) rest
  in
  go 0 items

let insert_after_node items node new_items =
  let rec go = function
    | [] -> fail "Materialize: anchor node not found in region"
    | item :: rest ->
      if item_matches node item then item :: (new_items @ rest)
      else item :: go rest
  in
  go items

let insert_before_index items idx new_items =
  let rec go k = function
    | rest when k = idx -> new_items @ rest
    | [] -> fail "Materialize: bad insertion index"
    | item :: rest -> item :: go (k + 1) rest
  in
  go 0 items

(* ------------------------------------------------------------- a level *)

type versioned = {
  v_node : Ir.node;
  v_conds : Depcond.atom list; (* canonical *)
  v_chk : Ir.value_id;
  v_remap : (Ir.value_id, Ir.value_id) Hashtbl.t; (* orig -> clone values *)
  v_clone : Ir.item;
  (* versioned values observable at region level: the instruction itself,
     or the etas of a versioned loop; each paired with its phi if any *)
  mutable v_outs : (Ir.value_id * Ir.value_id * Ir.value_id option) list;
  (* (orig value, clone value, versioning phi) *)
}

let rec materialize_level (f : Ir.func) (region : Ir.region)
    ~(outer : Ir.value_id -> Ir.value_id) (plans : Plan.t list) :
    Ir.value_id -> Ir.value_id =
  let plans = List.filter (fun p -> not (Plan.is_trivial p)) plans in
  (* 1. deepest levels first.  [child_local] maps values versioned by the
     secondary levels to their junction phis; it is returned to *other*
     plan trees but deliberately NOT applied to this tree's own
     conditions: a parent check only matters when its secondaries'
     checks passed, so it reads the original (check-passing side)
     values, whose independence is exactly what the secondaries
     guarantee. *)
  let secondaries = List.concat_map (fun p -> p.Plan.p_secondaries) plans in
  let child_local =
    if secondaries = [] then fun (v : Ir.value_id) -> v
    else materialize_level f region ~outer secondaries
  in
  if plans = [] then child_local
  else begin
    (* 2. versioning table: node -> union of conditions (post outer
       subst) *)
    let table : (Ir.node, Depcond.atom list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let atoms = List.map (subst_atom outer) p.Plan.p_conds in
        List.iter
          (fun node ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt table node) in
            Hashtbl.replace table node (Plan.dedup_atoms (atoms @ cur)))
          p.Plan.p_nodes)
      plans;
    (* groups: one check per unique condition set *)
    let groups : (Depcond.atom list * Ir.node list) list =
      Hashtbl.fold (fun node conds acc -> (conds, node) :: acc) table []
      |> List.sort (fun (c1, n1) (c2, n2) ->
             (* structural atom order: interned predicate ids are
                arbitrary, so polymorphic compare is not stable here *)
             let c = List.compare Depcond.compare_atom c1 c2 in
             if c <> 0 then c else Stdlib.compare (n1 : Ir.node) n2)
      |> List.fold_left
           (fun acc (conds, node) ->
             match acc with
             | (c, ns) :: rest when c = conds -> (c, node :: ns) :: rest
             | _ -> (conds, [ node ]) :: acc)
           []
    in
    (* 3. phase A: emit each group's check before the group's first
       versioned node.

       The check may read values defined further down (e.g. the phi'd
       comparison of the running example).  Instead of moving original
       code — which would corrupt the ordering of the fallback paths —
       the check computes over a PRIVATE CLONE of the operand chain:

       - the register chain of the condition operands (everything at or
         after the insertion point) is cloned, predicates and all;
       - every cloned load that thereby reads memory before a may-write
         it originally followed contributes that dependence's condition
         to the check: if the dependence is real at run time, the check
         fails and only untouched original code executes — the clone's
         stale value is never observable;
       - an *unconditional* crossing dependence cannot be covered this
         way and aborts materialization of the plan (the caller skips
         the transformation). *)
    let chk_of_group : (Depcond.atom list, Ir.value_id) Hashtbl.t =
      Hashtbl.create 8
    in
    (* One analysis serves every group: the only mutation phase A performs
       is inserting check chains, whose instructions never may-write
       (clones of pure/load code plus the comparison network), so no
       dependence edge can involve an inserted item and every graph query
       below concerns pre-existing nodes only.  Positions are still taken
       from the refreshed item list so insertion indexes account for
       earlier groups' checks. *)
    let scev = Scev.create f in
    let ctx = Depcond.make_ctx f scev region in
    (* the graph's edges are consulted only when a check chain reaches
       below its insertion point (a cloned load must collect the
       conditions of the dependences it crosses) — a rare shape, so the
       quadratic construction is deferred to first use *)
    let g = lazy (Depgraph.build f scev region) in
    List.iter
      (fun (conds, group_nodes) ->
        let items = Ir.region_items f region in
        let pos : (Ir.node, int) Hashtbl.t =
          Hashtbl.create (List.length items)
        in
        List.iteri
          (fun k item -> Hashtbl.replace pos (Ir.node_of_item item) k)
          items;
        let pos_opt node = Hashtbl.find_opt pos node in
        let insert_pos =
          List.fold_left
            (fun acc n ->
              match pos_opt n with
              | Some k -> min acc k
              | None -> fail "Materialize: versioned node not in region")
            max_int group_nodes
        in
        let chain : (Ir.value_id, unit) Hashtbl.t = Hashtbl.create 8 in
        let rec close_chain v =
          if not (Hashtbl.mem chain v) then
            match Depcond.def_item ctx v with
            | Some node -> (
              match pos_opt node with
              | Some k when k >= insert_pos -> (
                match node with
                | Ir.NL _ ->
                  fail
                    "Materialize: a check operand is defined by a loop \
                     below the insertion point"
                | Ir.NI _ ->
                  let i = Ir.inst f v in
                  (match i.kind with
                  | Ir.Call { effect = Ir.Impure | Ir.Readonly; _ } ->
                    fail "Materialize: check chain contains an opaque call"
                  | _ -> ());
                  Hashtbl.replace chain v ();
                  List.iter close_chain (Ir.all_operands i))
              | _ -> ())
            | None -> ()
        in
        List.iter close_chain (List.concat_map Depcond.atom_operands conds);
        (* memory coverage for the cloned loads, to fixpoint (the added
           atoms bring their own operand chains, which may contain more
           loads) *)
        let extra_atoms = ref [] in
        let scanned : (Ir.value_id, unit) Hashtbl.t = Hashtbl.create 8 in
        let scan_load v =
          if not (Hashtbl.mem scanned v) then begin
            Hashtbl.replace scanned v ();
            let node = Ir.NI v in
            let gg = Lazy.force g in
            let idx = Depgraph.node_index gg node in
            List.iter
              (fun e ->
                let target = gg.Depgraph.nodes.(e.Depgraph.e_dst) in
                match pos_opt target with
                | Some k when k >= insert_pos ->
                  if not (Depcond.reads_from ctx node target) then begin
                    match e.Depgraph.e_cond with
                    | Some atoms -> extra_atoms := atoms @ !extra_atoms
                    | None ->
                      fail
                        "Materialize: a check load unconditionally \
                         conflicts with code below the insertion point"
                  end
                | _ -> ())
              gg.Depgraph.succ.(idx)
          end
        in
        let rec saturate () =
          let before = Hashtbl.length chain in
          Hashtbl.iter
            (fun v () -> if Ir.may_read_inst (Ir.inst f v) then scan_load v)
            chain;
          List.iter close_chain
            (List.concat_map Depcond.atom_operands !extra_atoms);
          if Hashtbl.length chain <> before then saturate ()
        in
        saturate ();
        (* clone the chain in original order, then compute the check over
           the clones *)
        let remap : (Ir.value_id, Ir.value_id) Hashtbl.t = Hashtbl.create 8 in
        let subst v = Option.value ~default:v (Hashtbl.find_opt remap v) in
        let em = { ef = f; acc = [] } in
        List.iter
          (fun item ->
            match item with
            | Ir.I v when Hashtbl.mem chain v ->
              let i = Ir.inst f v in
              let c =
                Ir.new_inst ~name:(i.name ^ "_chk") f
                  ~kind:(Ir.rename_kind subst i.kind)
                  ~ty:i.ty
                  ~pred:(Pred.rename subst i.ipred)
              in
              Hashtbl.replace remap v c.id;
              em.acc <- Ir.I c.id :: em.acc
            | _ -> ())
          items;
        let checked_atoms =
          Condopt.eliminate_redundant (Plan.dedup_atoms (conds @ !extra_atoms))
          |> List.map (subst_atom subst)
        in
        let chk = materialize_check em checked_atoms in
        Tm.incr "materialize.checks_emitted";
        Tm.incr ~by:(List.length checked_atoms) "materialize.checked_atoms";
        Tm.incr ~by:(Hashtbl.length remap) "materialize.check_chain_cloned";
        Tr.remark (mat_anchor f region)
          (Tr.Check_emitted
             {
               atoms = List.length checked_atoms;
               cloned = Hashtbl.length remap;
             });
        Hashtbl.replace chk_of_group conds chk;
        let items' = insert_before_index items insert_pos (emitted em) in
        Ir.set_region_items f region items')
      groups;
    (* 4. phase B: clone and re-predicate *)
    let versioned : versioned list =
      List.concat_map
        (fun (conds, group_nodes) ->
          let chk = Hashtbl.find chk_of_group conds in
          (* process in program order so clones interleave predictably *)
          let items = Ir.region_items f region in
          let ordered =
            List.sort
              (fun a b ->
                compare (index_of_node items a) (index_of_node items b))
              group_nodes
          in
          (* An eta over a loop versioned in this same group is already
             handled as that loop's live-out (cloned eta + joining phi
             below): versioning it again as a plain instruction would
             produce a second clone still reading the *original* loop,
             and its [clone_of_value] entry would shadow the correct
             one during use redirection. *)
          let group_loops =
            List.filter_map
              (function Ir.NL l -> Some l | Ir.NI _ -> None)
              group_nodes
          in
          let ordered =
            List.filter
              (fun node ->
                match node with
                | Ir.NI v -> (
                  match (Ir.inst f v).Ir.kind with
                  | Ir.Eta { loop; _ } -> not (List.mem loop group_loops)
                  | _ -> true)
                | Ir.NL _ -> true)
              ordered
          in
          List.map
            (fun node ->
              let remap = Hashtbl.create 16 in
              let orig_item =
                match node with Ir.NI v -> Ir.I v | Ir.NL l -> Ir.L l
              in
              let clone = Ir.clone_item f remap orig_item in
              Tm.incr "materialize.nodes_versioned";
              Tm.incr ~by:(Hashtbl.length remap) "materialize.cloned_insts";
              let ok = Pred.lit chk and notok = Pred.lit ~positive:false chk in
              let v =
                {
                  v_node = node;
                  v_conds = conds;
                  v_chk = chk;
                  v_remap = remap;
                  v_clone = clone;
                  v_outs = [];
                }
              in
              (match node, clone with
              | Ir.NI ov, Ir.I cv ->
                let oi = Ir.inst f ov and ci = Ir.inst f cv in
                let base_pred = oi.ipred in
                oi.ipred <- Pred.and_ base_pred ok;
                ci.ipred <- Pred.and_ ci.ipred notok;
                let items = Ir.region_items f region in
                let items = insert_after_node items node [ clone ] in
                let phi =
                  if oi.ty = Tvoid then None
                  else begin
                    let p =
                      Ir.new_inst ~name:(oi.name ^ "_vphi") f
                        ~kind:(Ir.Phi [ (oi.ipred, ov); (ci.ipred, cv) ])
                        ~ty:oi.ty ~pred:base_pred
                    in
                    Tm.incr "materialize.versioning_phis";
                    Some p.id
                  end
                in
                let items =
                  match phi with
                  | Some p ->
                    insert_after_node items (Ir.NI cv) [ Ir.I p ]
                  | None -> items
                in
                Ir.set_region_items f region items;
                v.v_outs <- [ (ov, cv, phi) ]
              | Ir.NL ol, Ir.L cl ->
                let olp = Ir.loop f ol and clp = Ir.loop f cl in
                let base_pred = olp.lpred in
                olp.lpred <- Pred.and_ base_pred ok;
                clp.lpred <- Pred.and_ clp.lpred notok;
                let items = Ir.region_items f region in
                let items = insert_after_node items node [ clone ] in
                Ir.set_region_items f region items;
                (* live-outs: every eta over the original loop gets a
                   cloned eta over the cloned loop plus a joining phi *)
                let etas = ref [] in
                Ir.iter_insts f (fun i ->
                    match i.kind with
                    | Ir.Eta { loop; value } when loop = ol ->
                      (* skip etas created below for this same loop *)
                      if not (Hashtbl.mem remap i.id) then
                        etas := (i.id, value) :: !etas
                    | _ -> ());
                List.iter
                  (fun (eta_id, src_value) ->
                    let ei = Ir.inst f eta_id in
                    let mapped =
                      Option.value ~default:src_value
                        (Hashtbl.find_opt remap src_value)
                    in
                    let eta' =
                      Ir.new_inst ~name:(ei.name ^ "_v") f
                        ~kind:(Ir.Eta { loop = cl; value = mapped })
                        ~ty:ei.ty ~pred:ei.ipred
                    in
                    let phi =
                      Ir.new_inst ~name:(ei.name ^ "_vphi") f
                        ~kind:
                          (Ir.Phi
                             [
                               (Pred.and_ ei.ipred ok, eta_id);
                               (Pred.and_ ei.ipred notok, eta'.id);
                             ])
                        ~ty:ei.ty ~pred:ei.ipred
                    in
                    Tm.incr "materialize.versioning_phis";
                    let items = Ir.region_items f region in
                    let items =
                      insert_after_node items (Ir.NI eta_id)
                        [ Ir.I eta'.id; Ir.I phi.id ]
                    in
                    Ir.set_region_items f region items;
                    Hashtbl.replace remap eta_id eta'.id;
                    v.v_outs <- (eta_id, eta'.id, Some phi.id) :: v.v_outs)
                  !etas
              | _ -> assert false);
              v)
            ordered)
        groups
    in
    (* 5. phase C: redirect uses (Fig. 14 lines 44-60) *)
    let conds_of_value : (Ir.value_id, Depcond.atom list) Hashtbl.t =
      Hashtbl.create 32
    in
    let clone_of_value : (Ir.value_id, Ir.value_id) Hashtbl.t =
      Hashtbl.create 32
    in
    let phi_of_value : (Ir.value_id, Ir.value_id) Hashtbl.t = Hashtbl.create 32 in
    let all_phis = ref [] in
    List.iter
      (fun v ->
        List.iter
          (fun (ov, cv, phi) ->
            Hashtbl.replace conds_of_value ov v.v_conds;
            Hashtbl.replace clone_of_value ov cv;
            Option.iter
              (fun p ->
                Hashtbl.replace phi_of_value ov p;
                all_phis := p :: !all_phis)
              phi)
          v.v_outs)
      versioned;
    (* membership: value -> versioned node (original or clone side) *)
    let in_orig : (Ir.value_id, versioned) Hashtbl.t = Hashtbl.create 64 in
    let in_clone : (Ir.value_id, versioned) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let orig_item =
          match v.v_node with Ir.NI i -> Ir.I i | Ir.NL l -> Ir.L l
        in
        List.iter
          (fun d -> Hashtbl.replace in_orig d v)
          (Ir.defined_values f orig_item);
        List.iter
          (fun d -> Hashtbl.replace in_clone d v)
          (Ir.defined_values f v.v_clone))
      versioned;
    let subset a b = List.for_all (fun x -> List.mem x b) a in
    let users = Ir.compute_users f in
    let redirect ov =
      let conds_v = Hashtbl.find conds_of_value ov in
      let clone_v = Hashtbl.find clone_of_value ov in
      let phi_v = Hashtbl.find_opt phi_of_value ov in
      let replace_with_phi user =
        match phi_v with
        | Some p -> Ir.replace_uses_in_inst f ~user ~old_v:ov ~new_v:p
        | None -> ()
      in
      (* An original user may keep the original value only when its own
         check passing implies the value's check passed (conds_v subset
         of the user's conds).  Dually, a cloned user may use the cloned
         value only when its check *failing* implies the value's check
         failed (user's conds subset of conds_v).  Every other user reads
         the versioning phi, which is correct on both paths. *)
      List.iter
        (fun user ->
          if Some user <> phi_v then
            match Hashtbl.find_opt in_orig user, Hashtbl.find_opt in_clone user with
            | Some u, _ when subset conds_v u.v_conds ->
              () (* original user keeps the original value *)
            | _, Some u when subset u.v_conds conds_v ->
              Ir.replace_uses_in_inst f ~user ~old_v:ov ~new_v:clone_v
            | _ -> replace_with_phi user)
        (users ov);
      (* guard / continue predicates of loops *)
      Ir.iter_loops f (fun lp ->
          let lid = lp.Ir.lid in
          let mentions p = List.mem ov (Pred.literals p) in
          if mentions lp.Ir.lpred || mentions lp.Ir.cont then begin
            let owner =
              List.find_opt
                (fun v ->
                  match v.v_node, v.v_clone with
                  | Ir.NL l, _ when l = lid -> true
                  | _, Ir.L l when l = lid -> true
                  | _ -> false)
                versioned
            in
            let is_clone_side =
              match owner with
              | Some v -> (match v.v_clone with Ir.L l -> l = lid | _ -> false)
              | None -> false
            in
            let new_v =
              match owner with
              | Some u when is_clone_side ->
                if subset u.v_conds conds_v then Some clone_v else phi_v
              | Some u when subset conds_v u.v_conds -> None
              | _ -> phi_v
            in
            match new_v with
            | None -> ()
            | Some nv ->
              let s x = if x = ov then nv else x in
              lp.Ir.lpred <- Pred.rename s lp.Ir.lpred;
              lp.Ir.cont <- Pred.rename s lp.Ir.cont
          end)
    in
    Hashtbl.iter (fun ov _ -> redirect ov) conds_of_value;
    (* 5b. Fig. 14 last step: on the success side, phi arms whose gate
       would make a versioning condition true are dead — the check
       asserted those conditions false.  Dropping the arm removes the
       dependence the cut severed (e.g. the s258 recurrence when
       speculating that the branch is taken). *)
    List.iter
      (fun v ->
        List.iter
          (fun (ov, _, _) ->
            let i = Ir.inst f ov in
            match i.kind with
            | Ir.Phi arms ->
              let apreds =
                List.filter_map
                  (function Depcond.Apred q -> Some q | _ -> None)
                  v.v_conds
              in
              if apreds <> [] then begin
                let live =
                  List.filter
                    (fun (pa, _) ->
                      not (List.exists (fun q -> Pred.implies pa q) apreds))
                    arms
                in
                if List.length live < List.length arms then i.kind <- Ir.Phi live
              end
            | _ -> ())
          v.v_outs)
      versioned;
    (* (Unused versioning phis are left for the pipeline's global DCE:
       a later plan's substituted conditions may still reference them.) *)
    (* 7. record scoped-independence facts (paper SIV-B) *)
    List.iter
      (fun p ->
        (* the guarantee is active under any check that includes this
           plan's conditions; each versioned node's own group check does *)
        let node_chk node =
          match Hashtbl.find_opt table node with
          | Some conds -> Hashtbl.find_opt chk_of_group conds
          | None -> None
        in
        Plan.iter_access_pairs f p (fun a_node a b ->
            match node_chk a_node with
            | Some chk -> Ir.add_indep_scope f a b (Pred.lit chk)
            | None -> ());
        (* client-specified intra-node pairs (e.g. classic loop
           versioning: member accesses of one versioned loop) *)
        (match p.Plan.p_nodes with
        | first :: _ when p.Plan.p_scope_pairs <> [] -> (
          match node_chk first with
          | Some chk ->
            List.iter
              (fun (a, b) -> Ir.add_indep_scope f a b (Pred.lit chk))
              p.Plan.p_scope_pairs
          | None -> ())
        | _ -> ()))
      plans;
    (* local substitution exposed to other plan trees: the junction phi
       of the *outermost* level that versioned the value (an inner phi's
       original arm is itself redirected to the outer phi during fixup,
       so the inner phi is the complete merge) *)
    fun v ->
      let c = child_local v in
      if c <> v then c
      else match Hashtbl.find_opt phi_of_value v with Some p -> p | None -> v
  end

(* Public entry point: materialize a list of inferred plans.

   Top-level plans are materialized one plan-tree at a time (with earlier
   plans' versioning phis substituted into later plans' conditions): the
   check-hoisting legality argument of plan inference is per-plan, so a
   single batch may only contain the nodes of one plan. *)
let rec tree_nodes p =
  List.length p.Plan.p_nodes
  + List.fold_left (fun a s -> a + tree_nodes s) 0 p.Plan.p_secondaries

let run (f : Ir.func) (region : Ir.region) (plans : Plan.t list) :
    bool * (Ir.value_id -> Ir.value_id) =
  Tr.with_span ~cat:"versioning" "materialize.run" @@ fun () ->
  let all_ok = ref true in
  let total = ref (fun (v : Ir.value_id) -> v) in
  List.iter
    (fun plan ->
      (* A tree that turns out not to be materializable (its checks
         cannot be hoisted in the *current* program state, e.g. after an
         earlier tree's clones changed the dependence structure) is
         skipped.  Everything materialized so far is semantics-preserving
         on its own — at worst some dead check code remains — but the
         caller must know the independence guarantee was NOT established
         and give up on the transformation that wanted it. *)
      (* the phis this tree creates: the counter's delta, read in this
         domain's context, so other domains' trees cannot bleed in *)
      let phis_before = Tm.get "materialize.versioning_phis" in
      match materialize_level f region ~outer:!total [ plan ] with
      | local ->
        Tm.incr "materialize.plans";
        Tr.remark (mat_anchor f region)
          (Tr.Versioned
             {
               nodes = tree_nodes plan;
               conds = Plan.conds_count plan;
               phis = Tm.get "materialize.versioning_phis" - phis_before;
             });
        let prev = !total in
        (* the OUTERMOST (earliest) versioning phi is the total merge:
           later trees rewire its arms when they version the value
           again, so an earlier mapping takes precedence *)
        total :=
          fun v ->
            let p = prev v in
            if p <> v then p else local v
      | exception Error msg ->
        Tm.incr "materialize.aborted";
        Tr.remark (mat_anchor f region) (Tr.Materialize_aborted { reason = msg });
        all_ok := false)
    plans;
  (!all_ok, !total)
