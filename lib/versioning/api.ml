(* The two-function interface the paper describes (SIV): versioning-plan
   inference and plan materialization, over one region of a function.

   A client builds a session, asks (possibly repeatedly) for groups of
   instructions or loops to be made independent, and finally materializes
   every accepted plan at once. *)

open Fgv_pssa
open Fgv_analysis

type session = {
  s_func : Ir.func;
  s_region : Ir.region;
  s_scev : Scev.t;
  s_graph : Depgraph.t;
  mutable s_plans : Plan.t list;
  s_condopt : Condopt.config;
  (* loops enclosing the region, innermost first: what condition
     promotion widens out of *)
  s_enclosing : Ir.loop_id list;
}

let create ?(condopt = Condopt.Reduce) ?scev (f : Ir.func)
    (region : Ir.region) : session =
  (* callers that already ran SCEV on the unmodified function (e.g. the
     SLP packer) pass it in rather than paying a second analysis *)
  let scev = match scev with Some s -> s | None -> Scev.create f in
  let graph = Depgraph.build f scev region in
  let enclosing =
    match region with
    | Ir.Rtop -> []
    | Ir.Rloop lid ->
      (* an unplaced loop has no loops around it *)
      lid :: Option.value ~default:[] (Ir.loop_ancestors f lid)
  in
  { s_func = f; s_region = region; s_scev = scev; s_graph = graph;
    s_plans = []; s_condopt = condopt; s_enclosing = enclosing }

(* Does no node of [nodes] depend on [input_nodes] already (no
   versioning needed)? *)
let already_separated s ~(nodes : Ir.node list) ~(input_nodes : Ir.node list)
    : bool =
  let idx = List.map (Depgraph.node_index s.s_graph) in
  not
    (Depgraph.depends_on s.s_graph ~excluded:(fun _ -> false) (idx nodes)
       (idx input_nodes))

(* Are the nodes already pairwise independent (no versioning needed)? *)
let already_independent s (nodes : Ir.node list) : bool =
  already_separated s ~nodes ~input_nodes:nodes

(* Record a plan: materialized by the next [materialize].  A trivial
   plan (the independence already holds) needs nothing lowered. *)
let record_plan s (plan : Plan.t) =
  if not (Plan.is_trivial plan) then s.s_plans <- plan :: s.s_plans

(* Infer a plan over the session's graph and optimize its conditions;
   [None] means versioning is infeasible. *)
let request ~record s infer : Plan.t option =
  match infer s.s_graph with
  | None -> None
  | Some plan ->
    let plan =
      Condopt.optimize_plan ~config:s.s_condopt s.s_scev
        ~enclosing:s.s_enclosing plan
    in
    if record then record_plan s plan;
    Some plan

(* Paper interface function 1: infer a versioning plan that makes the
   given nodes pairwise independent, by default recording it. *)
let request_independence ?(record = true) s (nodes : Ir.node list) =
  request ~record s (fun g -> Plan.infer_for_nodes g nodes)

(* Make [nodes] independent of [input_nodes] (the general form); the
   caller decides whether to record the plan. *)
let request_separation s ~(nodes : Ir.node list) ~(input_nodes : Ir.node list)
    =
  request ~record:false s (fun g -> Plan.infer g ~nodes ~input_nodes)

(* A plan's independence guarantee (its nodes' memory accesses vs its
   inputs', plus its client-specified pairs) as explicit access pairs:
   merged or unioned plans carry these, so the combination does not claim
   independence across plans. *)
let explicit_pairs (f : Ir.func) (p : Plan.t) =
  let pairs = ref [] in
  Plan.iter_access_pairs f p (fun _ a b -> pairs := (a, b) :: !pairs);
  List.rev_append !pairs p.Plan.p_scope_pairs

(* Plans without secondaries whose condition sets are equal can share a
   single check and a single clone generation: merge their node sets.
   (SLP tends to produce many such plans — one per pack — whose
   conditions coincide after redundant-condition elimination.) *)
let merge_plans (f : Ir.func) (plans : Plan.t list) : Plan.t list =
  let mergeable, rest =
    List.partition (fun p -> p.Plan.p_secondaries = []) plans
  in
  (* two condition sets are interchangeable when every atom has an
     exactly equivalent counterpart (redundant-condition-elimination
     equivalence is truth-preserving, SIV-A) *)
  let conds_equiv c1 c2 =
    List.length c1 = List.length c2
    && List.for_all (fun a -> List.exists (Condopt.atoms_equivalent a) c2) c1
    && List.for_all (fun b -> List.exists (Condopt.atoms_equivalent b) c1) c2
  in
  let merged = ref [] in
  List.iter
    (fun p ->
      let key = Plan.dedup_atoms p.Plan.p_conds in
      let pairs = explicit_pairs f p in
      match
        List.find_opt (fun q -> conds_equiv q.Plan.p_conds key) !merged
      with
      | None ->
        merged :=
          { p with Plan.p_conds = key; p_inputs = []; p_scope_pairs = pairs }
          :: !merged
      | Some q ->
        merged :=
          {
            q with
            Plan.p_nodes = List.sort_uniq compare (p.Plan.p_nodes @ q.Plan.p_nodes);
            p_scope_pairs = List.sort_uniq compare (pairs @ q.Plan.p_scope_pairs);
          }
          :: List.filter (fun r -> r != q) !merged)
    mergeable;
  List.rev !merged @ rest

(* Union a set of plans into a single plan guarded by the union of their
   conditions (any condition true sends *everything* to the fallback).
   Coarser than per-plan checks but sound: each constituent's conditions
   are included, so its independence guarantee is active whenever the
   union check passes.  [extra_nodes] are versioned alongside (a client
   uses this for nodes it rewrites together with the planned ones, e.g.
   every member of every SLP pack, so that the fast path contains only
   the rewritten code and the fallback only the clones). *)
let union_plans (f : Ir.func) ~(extra_nodes : Ir.node list) (plans : Plan.t list)
    : Plan.t option =
  let plans = List.filter (fun p -> not (Plan.is_trivial p)) plans in
  match plans with
  | [] -> None
  | _ ->
    let conds =
      Condopt.eliminate_redundant
        (Plan.dedup_atoms (List.concat_map (fun p -> p.Plan.p_conds) plans))
    in
    (* the unified check reads the conditions' operand chains before any
       versioned code; a node on those chains must therefore not be
       versioned by the union (it stays unversioned and reads versioning
       phis where needed, which is correct on both paths) *)
    let protected_values = Hashtbl.create 16 in
    let rec close v =
      if not (Hashtbl.mem protected_values v) then begin
        Hashtbl.replace protected_values v ();
        match Ir.inst_opt f v with
        | Some i -> List.iter close (Ir.all_operands i)
        | None -> ()
      end
    in
    List.iter close (List.concat_map Depcond.atom_operands conds);
    let protected_node = function
      | Ir.NI v -> Hashtbl.mem protected_values v
      | Ir.NL l ->
        List.exists (Hashtbl.mem protected_values)
          (Ir.defined_values f (Ir.L l))
    in
    Some
      {
        Plan.p_nodes =
          List.sort_uniq compare
            (extra_nodes @ List.concat_map (fun p -> p.Plan.p_nodes) plans)
          |> List.filter (fun n -> not (protected_node n));
        p_inputs = [];
        p_conds = conds;
        p_cut_edge_ids = [];
        p_secondaries = List.concat_map (fun p -> p.Plan.p_secondaries) plans;
        p_scope_pairs =
          List.sort_uniq compare (List.concat_map (explicit_pairs f) plans);
      }

(* Paper interface function 2: materialize every recorded plan.

   With [loop_upgrade] (and a loop-body region), plans whose conditions
   are all loop-invariant and that have no secondaries are lifted to
   *loop-granularity* versioning in the parent region: one check guards
   the whole loop, whose clone is the fallback, instead of per-iteration
   dual paths.  Loops are first-class versionable nodes in the
   framework, so this is just a different choice of N. *)
let materialize ?(loop_upgrade = false) (s : session) :
    (Ir.value_id -> Ir.value_id) option =
  if s.s_plans = [] then Some (fun v -> v)
  else begin
    let f = s.s_func in
    let plans = merge_plans f (List.rev s.s_plans) in
    let upgraded, direct =
      match s.s_region with
      | Ir.Rloop lid when loop_upgrade -> (
        let up, rest = List.partition (Plan.before_loop f lid) plans in
        match up with
        | [] -> (None, rest)
        | _ ->
          let conds =
            Condopt.eliminate_redundant
              (Plan.dedup_atoms (List.concat_map (fun p -> p.Plan.p_conds) up))
          in
          let pairs =
            List.sort_uniq compare
              (List.concat_map (fun p -> p.Plan.p_scope_pairs) up)
          in
          (Some (lid, Plan.whole_loop lid ~conds ~pairs), rest))
      | _ -> (None, plans)
    in
    let ok1, subst1 =
      match upgraded with
      | Some (lid, loop_plan) ->
        let parent = Option.value ~default:Ir.Rtop (Ir.loop_parent f lid) in
        Materialize.run f parent [ loop_plan ]
      | None -> (true, fun v -> v)
    in
    let ok2, subst2 =
      if direct <> [] then Materialize.run f s.s_region direct
      else (true, fun v -> v)
    in
    s.s_plans <- [];
    if ok1 && ok2 then
      Some
        (fun v ->
          let v' = subst1 v in
          if v' <> v then v' else subst2 v)
    else None
  end
