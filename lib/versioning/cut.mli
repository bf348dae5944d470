(** Dependence-graph cuts by reduction to min-cut (Fig. 8 of the paper).

    Finds a set of *conditional* dependence edges whose removal makes
    every node of T unreachable from S along dependence edges, using
    node-splitting and Dinic max-flow with capacity 1 on conditional
    edges and n+1 elsewhere. *)

open Fgv_analysis

type result = {
  cut_edges : Depgraph.edge list;
      (** the cut-set: conditional edges to sever; their conditions become
          the plan's versioning conditions *)
  source_nodes : int list;
      (** dependence-graph node indices on the source side of the cut
          that can still reach T: they must be versioned together with
          the input nodes (Fig. 13 l.31) *)
}

val already_independent : result
(** The empty cut returned when no node of T is reachable from S. *)

val find :
  Depgraph.t -> excluded:(int -> bool) -> s:int list -> t:int list ->
  result option
(** [find g ~excluded ~s ~t] computes a minimum cut separating [s] from
    [t] over the dependence edges not in [excluded], with the fewest
    conditional edges.  [None] when separation would require severing an
    unconditional edge — versioning is infeasible (SIII-A). *)
