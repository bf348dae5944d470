(** The framework's client interface — the two functions the paper's
    SIV describes (plan inference, plan materialization) plus session
    plumbing.

    A session binds a function and one region (the function body, or one
    loop body).  Clients request independence of node groups; accepted
    plans accumulate in the session and are lowered together by
    {!materialize}. *)

open Fgv_pssa
open Fgv_analysis

type session = {
  s_func : Ir.func;
  s_region : Ir.region;
  s_scev : Scev.t;
  s_graph : Depgraph.t;  (** the region's condition-labeled dependence graph *)
  mutable s_plans : Plan.t list;
  s_condopt : Condopt.config;
  s_enclosing : Ir.loop_id list;
      (** loops enclosing the region, innermost first (promotion targets) *)
}

val create :
  ?condopt:Condopt.config -> ?scev:Scev.t -> Ir.func -> Ir.region -> session
(** Build a session (SCEV + dependence graph) for one region.  [?scev]
    reuses a caller's analysis of the same, unmodified function instead
    of running it again. *)

val already_independent : session -> Ir.node list -> bool
(** Pairwise independent without any versioning? *)

val already_separated :
  session -> nodes:Ir.node list -> input_nodes:Ir.node list -> bool
(** No node of [nodes] depends on [input_nodes] without any versioning?
    Exactly when {!request_separation} would return a trivial plan. *)

val request_independence :
  ?record:bool -> session -> Ir.node list -> Plan.t option
(** Paper interface function 1: infer (and by default record) a plan
    making the nodes pairwise independent; conditions are optimized per
    the session's {!Condopt.config}.  [None] = infeasible. *)

val request_separation :
  session -> nodes:Ir.node list -> input_nodes:Ir.node list -> Plan.t option
(** The general form: no node of [nodes] depends on [input_nodes].  The
    plan is inferred and optimized as above but not recorded: the caller
    decides, with {!record_plan}. *)

val record_plan : session -> Plan.t -> unit
(** Record a plan for {!materialize}; a trivial one needs nothing
    lowered and is dropped. *)

val merge_plans : Ir.func -> Plan.t list -> Plan.t list
(** Merge secondary-free plans whose condition sets are equivalent
    (modulo constant shifts) so they share one check; per-plan
    independence guarantees are preserved as explicit scope pairs. *)

val union_plans :
  Ir.func -> extra_nodes:Ir.node list -> Plan.t list -> Plan.t option
(** Union plans into a single plan guarded by all their conditions
    (coarser: any condition true sends everything to the fallback).
    [extra_nodes] are versioned alongside — e.g. every member of every
    SLP pack, keeping the check-passing path purely rewritten code. *)

val materialize :
  ?loop_upgrade:bool -> session -> (Ir.value_id -> Ir.value_id) option
(** Paper interface function 2: lower every recorded plan.  With
    [loop_upgrade] and a loop-body region, plans whose conditions are
    loop-invariant are lifted to loop-granularity versioning (one check
    guards the whole loop, whose clone is the fallback).

    Returns [None] if any plan could not be materialized — its
    independence guarantee was then NOT established.  On success the
    returned substitution maps each versioned value to its outermost
    versioning phi (see {!Materialize.run}); clients redirecting uses to
    a versioned value must redirect to its image under the
    substitution. *)
