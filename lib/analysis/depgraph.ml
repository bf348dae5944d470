(* The labeled dependence graph over the items of one region (Fig. 7).

   Nodes are the region's items in program order (a nested loop is one
   node).  An edge i -> j means "i depends on j" (j precedes i) and
   carries its dependence condition; conditional edges are exactly the
   ones a versioning cut may sever. *)

open Fgv_pssa
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

type edge = {
  e_id : int; (* dense id, used as the max-flow tag *)
  e_src : int; (* node index: the dependent (later) node *)
  e_dst : int; (* node index: the dependee (earlier) node *)
  e_cond : Depcond.atom list option; (* None = unconditional *)
}

type t = {
  g_ctx : Depcond.ctx;
  nodes : Ir.node array; (* in program order *)
  index : (Ir.node, int) Hashtbl.t;
  edges : edge array;
  succ : edge list array; (* per node, its edges in descending id order *)
}

let node_index t n =
  match Hashtbl.find_opt t.index n with
  | Some i -> i
  | None -> invalid_arg "Depgraph.node_index: node not in region"

(* Shared scaffolding of both builders. *)
let prepare (f : Ir.func) (scev : Scev.t) (region : Ir.region) =
  let ctx = Depcond.make_ctx f scev region in
  let nodes =
    Array.of_list (List.map Ir.node_of_item (Ir.region_items f region))
  in
  let index = Hashtbl.create (max 1 (Array.length nodes)) in
  Array.iteri (fun k n -> Hashtbl.replace index n k) nodes;
  (ctx, nodes, index)

(* The graph over [edges], an array in id order, with each node's
   successor list built once. *)
let make ctx nodes index edges =
  let edges = Array.of_list (List.rev edges) in
  let succ = Array.make (Array.length nodes) [] in
  Array.iter (fun e -> succ.(e.e_src) <- e :: succ.(e.e_src)) edges;
  { g_ctx = ctx; nodes; index; edges; succ }

(* The reference builder: Fig. 6 on every pair.  Quadratic in the region
   size; kept as the oracle for the sparse-equivalence property test and
   as the compile-time baseline. *)
let build_naive (f : Ir.func) (scev : Scev.t) (region : Ir.region) : t =
  let ctx, nodes, index = prepare f scev region in
  let edges = ref [] in
  let next_id = ref 0 in
  let n = Array.length nodes in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      match Depcond.compute ctx nodes.(i) nodes.(j) with
      | Depcond.Never -> ()
      | Depcond.Always ->
        edges := { e_id = !next_id; e_src = i; e_dst = j; e_cond = None } :: !edges;
        incr next_id
      | Depcond.When atoms ->
        edges :=
          { e_id = !next_id; e_src = i; e_dst = j; e_cond = Some atoms } :: !edges;
        incr next_id
    done
  done;
  make ctx nodes index !edges

(* Sparse construction.  For each node i the candidate dependees are

   - register candidates: nodes defining a free value of i (a def->use
     lookup through [Depcond.def_item]; this covers the SSA-operand,
     phi-gate, and select-arm cases of Fig. 6, since those all require j
     to define an operand of i), and
   - memory candidates: nodes j where both sides have memory accesses,
     some cross pair involves a write, and the pair is not provably
     dependence-free from the per-access summaries alone.

   Every pair outside the candidate set is one [Depcond.compute] would
   map to [Never] (see DESIGN §12 for the case analysis), so scanning
   candidates in (i ascending, j ascending) order reproduces the naive
   builder's edge array — ids, conditions, order — exactly.  The
   equivalence is pinned by a property test over the fuzz corpus. *)
let build (f : Ir.func) (scev : Scev.t) (region : Ir.region) : t =
  let ctx, nodes, index = prepare f scev region in
  let n = Array.length nodes in
  (* per-node summaries, each computed once *)
  let accs = Array.map (Depcond.accesses ctx) nodes in
  let has_write =
    Array.map (List.exists (fun a -> a.Depcond.acc_write)) accs
  in
  (* execution predicate of instruction nodes: a memory-only pair of
     instructions with distinct predicates can still carry a control
     dependence (the pred(j).implies(pred(i)) case of Fig. 6), so only
     same-predicate instruction pairs may be pruned on range evidence *)
  let ipred =
    Array.map
      (function
        | Ir.NI v -> Some (Ir.inst f v).Ir.ipred
        | Ir.NL _ -> None)
      nodes
  in
  (* Restrict-bucket summaries.  The pairwise [bucket_disjoint] sweep
     over two nodes' access lists is O(|i|·|j|) — as expensive as the
     memory walk it tries to avoid when sibling loops carry hundreds of
     accesses.  Over the (few) distinct restrict bases of the region,
     per-node bitmask summaries make the same decision O(1) per pair:
     all write-involving cross pairs are bucket-disjoint iff every
     access of both subsets has a base, the base sets are disjoint, and
     neither side's ranges mention the other side's bases. *)
  let base_bits = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun a ->
         match a.Depcond.acc_base with
         | Some b when not (Hashtbl.mem base_bits b) ->
           Hashtbl.add base_bits b (Hashtbl.length base_bits)
         | _ -> ()))
    accs;
  let nbases = Hashtbl.length base_bits in
  (* (members, every member based, base mask, mention mask) *)
  let summarize sel l =
    List.fold_left
      (fun ((count, ok, bases, ment) as acc) a ->
        if not (sel a) then acc
        else
          match a.Depcond.acc_base, a.Depcond.acc_range with
          | Some b, Some r when nbases <= 62 ->
            let ment =
              Hashtbl.fold
                (fun b' k m ->
                  if Alias.range_mentions r b' then m lor (1 lsl k) else m)
                base_bits ment
            in
            (count + 1, ok, bases lor (1 lsl Hashtbl.find base_bits b), ment)
          | _ -> (count + 1, false, bases, ment))
      (0, true, 0, 0) l
  in
  let all_sum = Array.map (summarize (fun _ -> true)) accs in
  let write_sum =
    Array.map (summarize (fun a -> a.Depcond.acc_write)) accs
  in
  (* every pair of [w]'s members against [a]'s is bucket-disjoint *)
  let buckets_disjoint (wc, wok, wb, wm) (_, aok, ab, am) =
    wc = 0 || (wok && aok && wb land ab = 0 && wm land ab = 0 && wb land am = 0)
  in
  (* can the memory side of pair (i, j) be pruned without Fig. 6? *)
  let mem_prunable i j =
    (match ipred.(i), ipred.(j) with
    | Some p, Some q -> Pred.equal p q
    | _ -> true)
    && buckets_disjoint write_sum.(i) all_sum.(j)
    && buckets_disjoint write_sum.(j) all_sum.(i)
  in
  let edges = ref [] in
  let next_id = ref 0 in
  let computed = ref 0 in
  let cand = Array.make (max 1 n) false in
  for i = 1 to n - 1 do
    (* register candidates of i *)
    List.iter
      (fun v ->
        match Depcond.def_item ctx v with
        | Some d ->
          let k = Hashtbl.find index d in
          if k < i then cand.(k) <- true
        | None -> ())
      (Depcond.free_values ctx nodes.(i));
    (* memory candidates of i *)
    if accs.(i) <> [] then
      for j = 0 to i - 1 do
        if
          (not cand.(j))
          && accs.(j) <> []
          && (has_write.(i) || has_write.(j))
          && not (mem_prunable i j)
        then cand.(j) <- true
      done;
    for j = 0 to i - 1 do
      if cand.(j) then begin
        cand.(j) <- false;
        incr computed;
        match Depcond.compute ctx nodes.(i) nodes.(j) with
        | Depcond.Never -> ()
        | Depcond.Always ->
          edges :=
            { e_id = !next_id; e_src = i; e_dst = j; e_cond = None } :: !edges;
          incr next_id
        | Depcond.When atoms ->
          edges :=
            { e_id = !next_id; e_src = i; e_dst = j; e_cond = Some atoms }
            :: !edges;
          incr next_id
      end
    done
  done;
  let pruned = (n * (n - 1) / 2) - !computed in
  Tm.incr ~by:pruned "depgraph.pairs_pruned";
  Tr.remark
    (Tr.anchor
       ?loop:(match region with Ir.Rloop l -> Some l | Ir.Rtop -> None)
       f.Ir.fname)
    (Tr.Graph_sparsity
       { nodes = n; edges = !next_id; pairs_pruned = pruned });
  make ctx nodes index !edges

(* Is any node of [targets] reachable from [sources] along dependence
   edges, ignoring edges in [excluded]?  Used by tests and by clients to
   ask "are these already independent". *)
let depends_on t ~(excluded : int -> bool) (sources : int list)
    (targets : int list) : bool =
  let n = Array.length t.nodes in
  let target = Array.make n false in
  List.iter (fun i -> target.(i) <- true) targets;
  let seen = Array.make n false in
  let found = ref false in
  (* a source only "reaches" a target through at least one edge, so the
     DFS starts from the sources' dependence successors (this ignores the
     trivial s -> s reachability the paper's footnote mentions) *)
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      if target.(v) then found := true;
      walk v
    end
  and walk v =
    List.iter (fun e -> if not (excluded e.e_id) then go e.e_dst) t.succ.(v)
  in
  List.iter walk sources;
  !found

let to_string t =
  let f = t.g_ctx.Depcond.cf in
  let node_str n =
    match n with
    | Ir.NI v -> Printer.string_of_inst f (Ir.inst f v)
    | Ir.NL l -> Printf.sprintf "loop L%d" l
  in
  let buf = Buffer.create 512 in
  Array.iteri
    (fun k n -> Buffer.add_string buf (Printf.sprintf "node %d: %s\n" k (node_str n)))
    t.nodes;
  Array.iter
    (fun e ->
      let label =
        match e.e_cond with
        | None -> "always"
        | Some atoms ->
          String.concat " \\/ "
            (List.map (Depcond.atom_to_string t.g_ctx.Depcond.cscev) atoms)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [%s]\n" e.e_src e.e_dst label))
    t.edges;
  Buffer.contents buf
