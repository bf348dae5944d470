(* Dependence-graph cuts by reduction to min-cut (Fig. 8 of the paper).

   Given node sets S and T of the dependence graph, find a set of
   *conditional* dependence edges whose removal makes every node of T
   unreachable from S along dependence edges.  Construction:

   - a DFS from S discovers the relevant subgraph, and its S -> T
     corridor (the discovered nodes in T or reaching T) forms the
     network: no other node can carry flow;
   - every corridor node is split into an in-node and an out-node
     joined by a high-capacity auxiliary edge; a dependence edge i -> j
     becomes out(i) -> in(j);
   - source -> out(s) for s in S, in(t) -> sink for t in T;
   - conditional edges have capacity 1, everything else n+1 where n is
     the number of live edges discovered.

   If the max-flow exceeds the number of conditional edges, separating S
   from T would require cutting an unconditional dependence: versioning
   is infeasible. *)

open Fgv_analysis
module Ir = Fgv_pssa.Ir
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

(* Remark anchor for a cut query: the region's function and loop. *)
let cut_anchor (g : Depgraph.t) =
  let ctx = g.Depgraph.g_ctx in
  Tr.anchor
    ?loop:(match ctx.Depcond.cregion with
          | Ir.Rloop l -> Some l
          | Ir.Rtop -> None)
    ctx.Depcond.cf.Ir.fname

type result = {
  cut_edges : Depgraph.edge list; (* conditional edges to sever *)
  source_nodes : int list;
  (* dependence-graph nodes on the source side of the cut that can still
     reach T through the (uncut) dependence graph; these must be
     versioned together with the input nodes (Fig. 13 line 31) *)
}

let already_independent = { cut_edges = []; source_nodes = [] }

(* Every conditional edge costs 1, so a minimum cut needs the fewest
   checks. *)
let find (g : Depgraph.t) ~(excluded : int -> bool) ~(s : int list)
    ~(t : int list) : result option =
  Tr.with_span ~cat:"versioning" "cut.find" @@ fun () ->
  let succ = g.Depgraph.succ in
  let n_nodes = Array.length g.Depgraph.nodes in
  (* 1. discover the subgraph reachable from S, deciding each edge's
     exclusion once *)
  let live = Array.make (Array.length g.Depgraph.edges) false in
  let discovered = Array.make n_nodes false in
  let rec dfs v =
    if not discovered.(v) then begin
      discovered.(v) <- true;
      List.iter
        (fun e ->
          if not (excluded e.Depgraph.e_id) then begin
            live.(e.Depgraph.e_id) <- true;
            dfs e.Depgraph.e_dst
          end)
        succ.(v)
    end
  in
  List.iter dfs s;
  Tm.incr "cut.queries";
  Tm.incr ~by:(Array.fold_left (fun a d -> if d then a + 1 else a) 0 discovered)
    "cut.graph_nodes";
  let target = Array.make n_nodes false in
  List.iter (fun k -> target.(k) <- true) t;
  (* [reaches_t.(v)]: T is reachable from discovered [v] through at
     least one live edge.  An edge always points to an earlier node
     (Depgraph), so one ascending pass sees every successor first. *)
  let reaches_t = Array.make n_nodes false in
  for v = 0 to n_nodes - 1 do
    if discovered.(v) then
      reaches_t.(v) <-
        List.exists
          (fun e ->
            live.(e.Depgraph.e_id)
            && (target.(e.Depgraph.e_dst) || reaches_t.(e.Depgraph.e_dst)))
          succ.(v)
  done;
  if not (List.exists (fun k -> reaches_t.(k)) s) then begin
    Tm.incr "cut.already_independent";
    Some already_independent
  end
  else begin
    (* 2. the flow network holds only the corridor: discovered nodes in
       T or reaching T, and the live edges among them.  No other node
       can carry flow or lie on a shortest residual path to one, so
       Dinic pushes the same paths as over every discovered node, and
       no cut edge touches one (DESIGN §12).  The capacities still
       count every live edge. *)
    let n_uncond = ref 0 and n_cond = ref 0 in
    Array.iter
      (fun e ->
        if live.(e.Depgraph.e_id) then
          match e.Depgraph.e_cond with
          | None -> incr n_uncond
          | Some _ -> incr n_cond)
      g.Depgraph.edges;
    let n_cond = !n_cond in
    let big = !n_uncond + n_cond + 1 in
    (* corridor nodes, numbered densely in ascending order *)
    let slot = Array.make n_nodes (-1) in
    let n_corridor = ref 0 in
    for k = 0 to n_nodes - 1 do
      if discovered.(k) && (target.(k) || reaches_t.(k)) then begin
        slot.(k) <- !n_corridor;
        incr n_corridor
      end
    done;
    let in_node k = 2 * slot.(k) and out_node k = (2 * slot.(k)) + 1 in
    let net = Fgv_graph.Maxflow.create (2 * !n_corridor) in
    let source = Fgv_graph.Maxflow.add_node net in
    let sink = Fgv_graph.Maxflow.add_node net in
    (* the insertion order below fixes each node's arc order, and with
       it Dinic's paths: auxiliary edges, dependence edges in id order,
       then the source and sink edges in node order *)
    for k = 0 to n_nodes - 1 do
      if slot.(k) >= 0 then
        Fgv_graph.Maxflow.add_edge net ~src:(in_node k) ~dst:(out_node k) ~cap:big
    done;
    Array.iter
      (fun e ->
        if
          live.(e.Depgraph.e_id)
          && slot.(e.Depgraph.e_src) >= 0
          && slot.(e.Depgraph.e_dst) >= 0
        then
          let cap = match e.Depgraph.e_cond with None -> big | Some _ -> 1 in
          Fgv_graph.Maxflow.add_edge ~tag:e.Depgraph.e_id net
            ~src:(out_node e.Depgraph.e_src) ~dst:(in_node e.Depgraph.e_dst) ~cap)
      g.Depgraph.edges;
    List.iter
      (fun k ->
        if slot.(k) >= 0 then
          Fgv_graph.Maxflow.add_edge net ~src:source ~dst:(out_node k) ~cap:big)
      (List.sort_uniq compare s);
    List.iter
      (fun k ->
        if slot.(k) >= 0 then
          Fgv_graph.Maxflow.add_edge net ~src:(in_node k) ~dst:sink ~cap:big)
      (List.sort_uniq compare t);
    let flow = Fgv_graph.Maxflow.solve net ~source ~sink in
    Tm.incr ~by:(Fgv_graph.Maxflow.augmenting_paths net) "cut.maxflow_augmenting";
    (* a cut consisting solely of conditional edges costs at most
       [n_cond]; more flow means an unconditional dependence must be
       severed, so versioning is infeasible *)
    if flow > n_cond then begin
      Tm.incr "cut.infeasible";
      Tr.remark (cut_anchor g) (Tr.Cut_infeasible { flow });
      None
    end
    else begin
      (* 3. recover the cut: the tags are edge ids, sorted, and ids index
         [edges] *)
      let side = Fgv_graph.Maxflow.source_side net ~source in
      let cut_edges =
        List.map
          (fun id -> g.Depgraph.edges.(id))
          (Fgv_graph.Maxflow.cut_edge_tags net ~side)
      in
      assert (List.for_all (fun e -> e.Depgraph.e_cond <> None) cut_edges);
      (* nodes on the source side that can reach T in the (uncut)
         dependence graph, excluding trivial self-reachability *)
      let source_nodes =
        List.filter
          (fun k -> reaches_t.(k) && side.(out_node k))
          (List.init n_nodes (fun k -> k))
      in
      Tm.incr ~by:(List.length cut_edges) "cut.edges";
      Tr.remark (cut_anchor g)
        (Tr.Cut_found { edges = List.length cut_edges; capacity = flow });
      Some { cut_edges; source_nodes }
    end
  end
