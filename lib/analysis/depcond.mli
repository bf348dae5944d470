(** Dependence conditions (Fig. 5 and Fig. 6 of the paper): the necessary
    condition under which one node *directly* depends on another. *)

open Fgv_pssa

type atom =
  | Apred of Pred.t
      (** the dependence exists only if this control predicate holds
          (i.e. the earlier instruction actually executes) *)
  | Aintersect of Scev.range * Scev.range
      (** the dependence exists only if the two memory ranges overlap *)

type cond =
  | Never  (** no dependence *)
  | Always  (** unconditional: SSA use, proven overlap, opaque call *)
  | When of atom list  (** dependence iff any atom holds (a disjunction) *)

val compare_atom : atom -> atom -> int
(** Structural total order on atoms (predicates via [Pred.compare_t]):
    stable across runs and job counts — the order for any observable
    sorting of atoms. *)

val atom_operands : atom -> Ir.value_id list
(** Values a run-time check of the atom would read (Fig. 13 l.14). *)

val atom_to_string : Scev.t -> atom -> string

val join : cond -> cond -> cond
(** Disjunction of two condition results; the merged atom list is
    [compare_atom]-sorted and duplicate-free. *)

(** Per-region summary of one memory access (range promoted to region
    level, restrict base of that range), computed once per access. *)
type access = {
  acc_v : Ir.value_id;
  acc_write : bool;
  acc_range : Scev.range option;
  acc_base : Ir.value_id option;
}

type ctx = {
  cf : Ir.func;
  cscev : Scev.t;
  cregion : Ir.region;
  ceff : Ir.value_id -> Pred.t;
      (** effective predicates (own pred ∧ enclosing loop guards) *)
  mutable cscopes :
    (Ir.value_id * Ir.value_id * Pred.t) list
    * (Ir.value_id -> Ir.value_id -> Pred.t list);
      (** [Ir.indep_scope_index] of [cf.indep_scopes] and the fact list
          it indexes; rebuilt when that list changes *)
  under : (Ir.loop_id, unit) Hashtbl.t;
      (** loops nested under the region (member ranges promote out of
          these) *)
  def_item : (Ir.value_id, Ir.node) Hashtbl.t;
      (** region-level item defining each value *)
  crange : (Ir.value_id, Scev.range option) Hashtbl.t;
      (** memo: region-promoted range per access *)
  caccess : (Ir.node, access list) Hashtbl.t;
      (** memo: access summaries per node *)
  cfree : (Ir.node, Ir.value_id list) Hashtbl.t;
      (** memo: register inputs per node *)
}

val make_ctx : Ir.func -> Scev.t -> Ir.region -> ctx

val def_item : ctx -> Ir.value_id -> Ir.node option

val region_range : ctx -> Ir.value_id -> Scev.range option
(** Memory range of an access, promoted to region level; [None] means all
    of memory (opaque call / failed promotion). *)

val mem_insts : ctx -> Ir.node -> Ir.value_id list
(** Fig. 6's [mem_instructions]: the node's memory accesses. *)

val accesses : ctx -> Ir.node -> access list
(** The node's memory accesses with promoted ranges and restrict bases
    (memoized). *)

val bucket_disjoint : access -> access -> bool
(** Distinct restrict buckets: the two accesses provably address
    distinct allocations, so their [memory_pair] is [Never]. *)

val free_values : ctx -> Ir.node -> Ir.value_id list
(** Values the node reads but does not define (register inputs). *)

val reads_from : ctx -> Ir.node -> Ir.node -> bool
(** Does node i read a value defined by node j? *)

val compute : ctx -> Ir.node -> Ir.node -> cond
(** Fig. 6's [c(i, j)]: the condition for [i] (later in program order) to
    directly depend on [j].  Bumps the [depcond.compute_calls] telemetry
    counter — the number CI pins to guard graph-construction cost. *)
