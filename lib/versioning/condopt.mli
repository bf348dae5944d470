(** Optimizations on versioning conditions before materialization
    (paper SIV-A): redundant condition elimination, condition
    coalescing, and condition promotion. *)

open Fgv_pssa
open Fgv_analysis

val range_offset : Scev.range -> Scev.range -> int option
(** Constant offset between two ranges; defined only when both bounds
    shift by the same amount. *)

val atoms_equivalent : Depcond.atom -> Depcond.atom -> bool
(** Truth-preserving equivalence: intersection checks whose two sides are
    shifted by one common constant (possibly with operands swapped),
    or structurally equal predicates. *)

val eliminate_redundant : Depcond.atom list -> Depcond.atom list
(** Keep one representative per equivalence class. *)

val coalesce : Depcond.atom list -> Depcond.atom list
(** Merge intersection checks into cheaper over-approximating hulls when
    all bounds differ by constants.  May fail more often than the
    originals — sound, applied after redundant-condition elimination. *)

val promote_best_effort :
  Scev.t -> enclosing:Ir.loop_id list -> Depcond.atom list -> Depcond.atom list
(** For each intersection check, widen it out of the deepest prefix of
    [enclosing] (innermost loop first) whose induction variables are
    affine with known extents, so LICM can hoist the check.  Per the
    paper, imprecise promotion is only applied across different memory
    objects; checks that cannot be promoted are kept unchanged. *)

(** Which optimizations a plan's conditions get. *)
type config =
  | Off  (** none (the A2 ablation) *)
  | Reduce  (** redundant-condition elimination, then coalescing *)
  | Promote  (** [Reduce], then promotion out of the enclosing loops *)

val optimize_plan :
  config:config -> Scev.t -> enclosing:Ir.loop_id list -> Plan.t -> Plan.t
(** Apply the optimizations to a whole plan tree. *)
