(* Versioning plans and their inference (Fig. 13 of the paper).

   A plan names the dependence-graph nodes to version, the conditions to
   assert false at run time, and the secondary plans that make those
   conditions computable before the versioned code.  Inference is
   iterative where the paper is recursive-with-update: after inferring a
   secondary plan we re-run the cut with the secondary's severed edges
   excluded (which the paper notes is equivalent to [update_cut]) and
   check that the new conditions are themselves independent; the
   program-order argument of SIII-C bounds the number of rounds. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

type t = {
  p_nodes : Ir.node list; (* versioned: source side + input nodes *)
  p_inputs : Ir.node list; (* the nodes whose independence was requested *)
  p_conds : Depcond.atom list; (* all asserted false at run time *)
  p_cut_edge_ids : int list; (* severed dependence edges, for update_cut *)
  p_secondaries : t list; (* materialized before this plan *)
  (* extra memory-instruction pairs that become disjoint under this
     plan's check (used by clients, e.g. classic loop versioning, whose
     guarantees are within a node rather than across nodes) *)
  p_scope_pairs : (Ir.value_id * Ir.value_id) list;
}

let is_trivial p = p.p_conds = [] && p.p_secondaries = []

let whole_loop lid ~conds ~pairs =
  {
    p_nodes = [ Ir.NL lid ];
    p_inputs = [];
    p_conds = conds;
    p_cut_edge_ids = [];
    p_secondaries = [];
    p_scope_pairs = pairs;
  }

let before_loop (f : Ir.func) lid =
  (* one order table for every plan: [compute_order] walks the whole
     function *)
  let order = Ir.compute_order f in
  let loop_start = order (Ir.NL lid) in
  fun p ->
    p.p_secondaries = []
    && List.for_all
         (fun a ->
           List.for_all
             (fun v -> order (Ir.NI v) < loop_start)
             (Depcond.atom_operands a))
         p.p_conds

let iter_access_pairs (f : Ir.func) p k =
  let mems node =
    Ir.memory_insts f (match node with Ir.NI v -> Ir.I v | Ir.NL l -> Ir.L l)
  in
  List.iter
    (fun a_node ->
      List.iter
        (fun b_node ->
          if a_node <> b_node then
            List.iter
              (fun a ->
                List.iter (fun b -> if a <> b then k a_node a b) (mems b_node))
              (mems a_node))
        p.p_inputs)
    p.p_nodes

(* All cut edges severed by a plan tree (the dependencies that no longer
   exist once the whole tree is materialized). *)
let rec all_cut_edge_ids p =
  p.p_cut_edge_ids @ List.concat_map all_cut_edge_ids p.p_secondaries

let rec conds_count p =
  List.length p.p_conds
  + List.fold_left (fun a s -> a + conds_count s) 0 p.p_secondaries

(* Nesting depth of the secondary-plan tree (0 = no secondaries). *)
let rec secondary_depth p =
  List.fold_left (fun a s -> max a (1 + secondary_depth s)) 0 p.p_secondaries

let rec count_plans p =
  1 + List.fold_left (fun a s -> a + count_plans s) 0 p.p_secondaries

(* Canonical, de-duplicated atom list. *)
(* Structural order, not polymorphic compare: predicates are interned
   and their ids are arbitrary, so only [Depcond.compare_atom] is stable
   across runs and job counts. *)
let dedup_atoms atoms = List.sort_uniq Depcond.compare_atom atoms

exception Infeasible

let atoms_of_cut (cut : Cut.result) =
  dedup_atoms
    (List.concat_map
       (fun e ->
         match e.Depgraph.e_cond with
         | Some atoms -> atoms
         | None -> assert false)
       cut.Cut.cut_edges)

(* Dependence-graph nodes that define the values a condition set reads
   (condition operands defined outside the region need no versioning). *)
let operand_nodes (g : Depgraph.t) atoms =
  let ops = List.concat_map Depcond.atom_operands atoms in
  List.sort_uniq compare
    (List.filter_map (fun v -> Depcond.def_item g.Depgraph.g_ctx v) ops)

let node_indices g nodes = List.map (Depgraph.node_index g) nodes

(* Values defined by the given nodes (used for the "directly uses"
   rejection of Fig. 13 line 16). *)
let defined_by g nodes =
  let f = g.Depgraph.g_ctx.Depcond.cf in
  List.concat_map
    (fun n ->
      match n with
      | Ir.NI v -> [ v ]
      | Ir.NL lid -> Ir.defined_values f (Ir.L lid))
    nodes

let max_rounds = 32

(* Infer a plan making [nodes] independent of [input_nodes].
   [excluded] are dependence edges already severed by enclosing plans. *)
let rec infer_rec (g : Depgraph.t) ~(excluded : int list) ~(nodes : Ir.node list)
    ~(input_nodes : Ir.node list) ~depth : t option =
  if depth > max_rounds then None
  else begin
    let s = node_indices g nodes and t = node_indices g input_nodes in
    let excl id = List.mem id excluded in
    match Cut.find g ~excluded:excl ~s ~t with
    | None -> None
    | Some cut when cut.Cut.cut_edges = [] ->
      Some
        {
          p_nodes = [];
          p_inputs = input_nodes;
          p_conds = [];
          p_cut_edge_ids = [];
          p_secondaries = [];
          p_scope_pairs = [];
        }
    | Some cut -> (
      let conds = atoms_of_cut cut in
      (* Fig. 13 line 16: a condition that directly reads a value defined
         by the input nodes can never be hoisted above them *)
      let ops = List.concat_map Depcond.atom_operands conds in
      let input_defs = defined_by g input_nodes in
      if List.exists (fun v -> List.mem v input_defs) ops then None
      else begin
        let op_nodes = operand_nodes g conds in
        let op_idx = node_indices g op_nodes in
        if not (Depgraph.depends_on g ~excluded:excl op_idx t) then
          (* conditions are already computable before the inputs *)
          Some
            {
              p_nodes =
                List.sort_uniq compare
                  (List.map (fun k -> g.Depgraph.nodes.(k)) cut.Cut.source_nodes
                  @ input_nodes);
              p_inputs = input_nodes;
              p_conds = conds;
              p_cut_edge_ids =
                List.map (fun e -> e.Depgraph.e_id) cut.Cut.cut_edges;
              p_secondaries = [];
              p_scope_pairs = [];
            }
        else
          match
            infer_rec g ~excluded ~nodes:op_nodes ~input_nodes ~depth:(depth + 1)
          with
          | None -> None
          | Some secondary ->
            (* update_cut: drop the edges the secondary eliminates and
               re-run; iterate in case the refreshed cut picked new
               conditions that need their own secondary *)
            let excluded' = all_cut_edge_ids secondary @ excluded in
            (match
               infer_rec g ~excluded:excluded' ~nodes ~input_nodes
                 ~depth:(depth + 1)
             with
            | None -> None
            | Some updated ->
              Some
                {
                  updated with
                  p_secondaries = secondary :: updated.p_secondaries;
                })
      end)
  end

(* Public entry points *)

(* Remark anchor for plan inference: the region's function and loop,
   plus the first requested node when it is an instruction. *)
let plan_anchor (g : Depgraph.t) (nodes : Ir.node list) =
  let ctx = g.Depgraph.g_ctx in
  let f = ctx.Depcond.cf in
  Tr.anchor
    ?loop:(match ctx.Depcond.cregion with
          | Ir.Rloop l -> Some l
          | Ir.Rtop -> None)
    ?value:(match nodes with
           | Ir.NI v :: _ -> Some (Ir.value_name f v)
           | _ -> None)
    f.Ir.fname

let infer g ~nodes ~input_nodes =
  Tm.incr "plan.requests";
  Tr.with_span ~cat:"versioning" "plan.infer" @@ fun () ->
  match infer_rec g ~excluded:[] ~nodes ~input_nodes ~depth:0 with
  | None ->
    Tm.incr "plan.infeasible";
    Tr.remark (plan_anchor g nodes) Tr.Plan_infeasible;
    None
  | Some plan ->
    Tm.incr ~by:(count_plans plan) "plan.inferred";
    Tm.incr ~by:(conds_count plan) "plan.conds";
    Tm.set_max "plan.max_secondary_depth" (secondary_depth plan);
    let depth = secondary_depth plan in
    if depth > 0 then
      Tr.remark (plan_anchor g nodes)
        (Tr.Secondary_plan { depth; plans = count_plans plan });
    Some plan

(* Fig. 13 [infer_version_plans_for_insts]: make a set of nodes pairwise
   independent. *)
let infer_for_nodes g nodes = infer g ~nodes ~input_nodes:nodes

let rec to_string (g : Depgraph.t) p =
  let f = g.Depgraph.g_ctx.Depcond.cf in
  let scev = g.Depgraph.g_ctx.Depcond.cscev in
  let node_str = function
    | Ir.NI v -> Ir.value_name f v
    | Ir.NL l -> Printf.sprintf "L%d" l
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "N = {%s}\n" (String.concat ", " (List.map node_str p.p_nodes)));
  Buffer.add_string buf
    (Printf.sprintf "C = {%s}\n"
       (String.concat ", " (List.map (Depcond.atom_to_string scev) p.p_conds)));
  List.iter
    (fun s ->
      Buffer.add_string buf "V' =\n";
      Buffer.add_string buf (to_string g s))
    p.p_secondaries;
  Buffer.contents buf
