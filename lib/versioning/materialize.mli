(** Materialization of versioning plans into IR (Fig. 14 of the paper).

    Lowers plan trees deepest-secondaries-first: emits one run-time check
    per unique condition set (computed over a private clone of the
    check's operand chain — original code is never reordered), clones
    every versioned node, strengthens the original's predicate with the
    check and the clone's with its negation, joins values with
    versioning phis, redirects uses per Fig. 14, prunes phi arms whose
    gates contradict the asserted conditions, and records
    scoped-independence facts (the paper's scoped-noalias analogue,
    SIV-B). *)

open Fgv_pssa

(** A straight-line emitter: {!emit} makes an instruction predicated
    true and {!emitted} lists what was made, in order. *)
type emitter = { ef : Ir.func; mutable acc : Ir.item list (* reversed *) }

val emit : ?name:string -> emitter -> Ir.inst_kind -> Ir.ty -> Ir.value_id
val emitted : emitter -> Ir.item list

val materialize_linexp : emitter -> Fgv_analysis.Linexp.t -> Ir.value_id
(** Emit the integer arithmetic computing a linear expression; a lone
    unit term is its value, unemitted. *)

exception Error of string
(** Internal materialization failure (also used to reject a plan that
    turns out not to be materializable in the current program state). *)

val run :
  Ir.func -> Ir.region -> Plan.t list -> bool * (Ir.value_id -> Ir.value_id)
(** Materialize the plans, one plan tree at a time (later trees see
    earlier trees' versioning phis in their conditions).

    Returns [(ok, subst)].  [ok = false] means at least one tree had to
    be skipped: the skipped plans' independence guarantees were NOT
    established, so the caller must not perform the transformation that
    requested them.  A tree refused while its checks were placed leaves
    only dead check code; one refused while its nodes were cloned (a
    live-out eta of a versioned loop outside the region) leaves that loop
    versioned with no use redirected.

    [subst] maps each versioned value to its outermost versioning phi —
    the value valid on every path.  A client that redirects uses to a
    versioned value (e.g. RLE collapsing a load group onto its leader)
    MUST redirect to [subst leader], not to the leader itself, whose
    predicate has been narrowed by the checks. *)
