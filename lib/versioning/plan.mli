(** Versioning plans and their inference (Fig. 13 of the paper).

    A plan describes — without transforming the program — a set of
    dependence-graph nodes to version and the conditions under which the
    versioned copies must run instead, plus the nested secondary plans
    that make those conditions computable before the versioned code. *)

open Fgv_pssa
open Fgv_analysis

type t = {
  p_nodes : Ir.node list;
      (** nodes to version: the source side of the cut that can reach the
          input nodes, plus the input nodes themselves (Fig. 13 l.31) *)
  p_inputs : Ir.node list;
      (** the nodes whose independence was requested *)
  p_conds : Depcond.atom list;
      (** versioning conditions, all asserted false at run time; if any
          is true execution falls back to the clones *)
  p_cut_edge_ids : int list;
      (** dependence edges severed by this plan's cut (used by the
          update-cut step of nested inference) *)
  p_secondaries : t list;
      (** plans materialized before this one so the conditions can be
          evaluated first (the paper's nested versioning) *)
  p_scope_pairs : (Ir.value_id * Ir.value_id) list;
      (** extra memory-instruction pairs that become disjoint under this
          plan's check — used by clients whose guarantee is within a node
          (e.g. classic loop versioning over one loop's accesses) *)
}

val is_trivial : t -> bool
(** No conditions and no secondaries: the request was already satisfied. *)

val whole_loop :
  Ir.loop_id ->
  conds:Depcond.atom list ->
  pairs:(Ir.value_id * Ir.value_id) list ->
  t
(** Version the whole loop under one check of [conds], evaluated before
    it in its parent region, with the loop's clone as the fallback: the
    shape of classic loop versioning.  The guarantee is within the loop,
    so it is [pairs] alone, as scope pairs. *)

val before_loop : Ir.func -> Ir.loop_id -> t -> bool
(** [before_loop f lid p]: [p] has no secondaries and every operand of
    its conditions is defined before loop [lid] starts, so one check
    before the loop can guard it ({!whole_loop}).  Partially applied to
    [f] and [lid], it computes the program order once for any number of
    plans. *)

val iter_access_pairs :
  Ir.func -> t -> (Ir.node -> Ir.value_id -> Ir.value_id -> unit) -> unit
(** [k node a b] for every memory access [a] of a versioned [node] and
    distinct access [b] of another input node, in [p_nodes] then
    [p_inputs] order: the pairs the plan's check makes independent,
    [p_scope_pairs] aside. *)

val all_cut_edge_ids : t -> int list
(** Severed dependence edges of the whole plan tree. *)

val conds_count : t -> int
(** Total number of run-time conditions in the tree (ablation metric). *)

val secondary_depth : t -> int
(** Nesting depth of the secondary-plan tree (0 = no secondaries). *)

val count_plans : t -> int
(** Number of plans in the tree, the root included. *)

val dedup_atoms : Depcond.atom list -> Depcond.atom list
(** Canonical sorted, de-duplicated atom list. *)

exception Infeasible

val infer :
  Depgraph.t -> nodes:Ir.node list -> input_nodes:Ir.node list -> t option
(** Infer a plan guaranteeing that no node in [nodes] depends on
    [input_nodes] once materialized. [None] when separating them would
    require severing an unconditional dependence. *)

val infer_for_nodes : Depgraph.t -> Ir.node list -> t option
(** Fig. 13's [infer_version_plans_for_insts]: make the given nodes
    pairwise independent. *)

val to_string : Depgraph.t -> t -> string
(** Render the plan tree in the paper's N/C/V' notation (cf. Fig. 12). *)
