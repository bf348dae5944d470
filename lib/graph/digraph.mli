(** Directed graph over node ids [0, n). Parallel edges are permitted. *)

type t

val create : int -> t
val size : t -> int
val add_edge : t -> src:int -> dst:int -> unit
val successors : t -> int -> int list

val reachable : t -> int list -> bool array
(** Nodes reachable from the roots (roots included). *)

val co_reachable : t -> int list -> bool array
(** Nodes that can reach one of the roots (roots included). *)

exception Cycle of int

val topological_sort : t -> int list
(** Order where every node precedes its successors. Raises {!Cycle}. *)
