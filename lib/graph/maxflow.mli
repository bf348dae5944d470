(** Dinic max-flow / min-cut over an integer-capacity network.

    Build the network with {!create}/{!add_node}/{!add_edge}, then call
    {!solve} once; afterwards {!source_side} and {!cut_edge_tags} describe
    the minimum cut. *)

type t

val create : int -> t
(** [create n] makes a network with nodes [0, n). *)

val add_node : t -> int
(** Add one node, returning its id. *)

val add_edge : ?tag:int -> t -> src:int -> dst:int -> cap:int -> unit
(** Directed edge with integer capacity. [tag >= 0] marks edges the caller
    wants reported by {!cut_edge_tags}. *)

val solve : t -> source:int -> sink:int -> int
(** Maximum flow value. Freezes the network. *)

val augmenting_paths : t -> int
(** Number of augmenting paths {!solve} pushed flow along (0 before
    solving) — the work metric the telemetry layer reports. *)

val source_side : t -> source:int -> bool array
(** Nodes on the source side of the minimum cut (residual reachability). *)

val cut_edge_tags : t -> side:bool array -> int list
(** Tags of tagged, saturated forward edges crossing the minimum cut
    whose {!source_side} is [side], sorted and de-duplicated. *)
