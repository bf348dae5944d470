(** The condition-labeled dependence graph over one region's items
    (Fig. 7 of the paper).  Nodes are the region's sibling items in
    program order — a nested loop is a single node — and an edge
    [i -> j] means "i depends on j", labeled with its dependence
    condition. *)

open Fgv_pssa

type edge = {
  e_id : int;  (** dense id; doubles as the max-flow tag *)
  e_src : int;  (** node index of the dependent (later) node *)
  e_dst : int;  (** node index of the dependee (earlier) node *)
  e_cond : Depcond.atom list option;
      (** [None] = unconditional; [Some atoms] = conditional (severable
          by a versioning cut) *)
}

type t = {
  g_ctx : Depcond.ctx;
  nodes : Ir.node array;  (** region items in program order *)
  index : (Ir.node, int) Hashtbl.t;
  edges : edge array;  (** in id order: [edges.(k).e_id = k] *)
  succ : edge list array;
      (** each node's outgoing dependence edges, in descending id order *)
}

val node_index : t -> Ir.node -> int
(** Index of a region-level node; raises if absent. *)

val build : Ir.func -> Scev.t -> Ir.region -> t
(** Sparse construction: enumerate candidate pairs from a def→use index
    and per-node memory-access summaries, and run Fig. 6 only on those;
    every skipped pair is provably [Depcond.Never].  Produces the same
    graph — edge ids, conditions, order — as Fig. 6 run on every pair,
    bumps the [depgraph.pairs_pruned] telemetry counter, and emits a
    [Graph_sparsity] remark per region. *)

val depends_on : t -> excluded:(int -> bool) -> int list -> int list -> bool
(** Is any target reachable from a source along dependence edges (through
    at least one edge — trivial self-reachability is ignored, cf. the
    paper's footnote)? *)

val to_string : t -> string
