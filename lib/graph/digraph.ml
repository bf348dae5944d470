(* A small directed-graph module over dense integer node ids.
   Used for dependence graphs and for reachability queries. *)

type t = {
  n : int;
  succ : int list array;  (* successors, most recently added first *)
  pred : int list array;
}

let create n = { n; succ = Array.make n []; pred = Array.make n [] }

let size t = t.n

let add_edge t ~src ~dst =
  t.succ.(src) <- dst :: t.succ.(src);
  t.pred.(dst) <- src :: t.pred.(dst)

let successors t v = t.succ.(v)

(* All nodes reachable from [roots] following successor edges, including
   the roots themselves. *)
let reachable t roots =
  let seen = Array.make t.n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go t.succ.(v)
    end
  in
  List.iter go roots;
  seen

(* Reverse reachability: all nodes that can reach one of [roots]. *)
let co_reachable t roots =
  let seen = Array.make t.n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go t.pred.(v)
    end
  in
  List.iter go roots;
  seen

exception Cycle of int

(* Topological order (dependencies after dependents is NOT assumed;
   successors are emitted after their node). Raises [Cycle v] when a cycle
   through [v] exists. *)
let topological_sort t =
  let state = Array.make t.n 0 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let out = ref [] in
  let rec visit v =
    match state.(v) with
    | 1 -> raise (Cycle v)
    | 2 -> ()
    | _ ->
      state.(v) <- 1;
      List.iter visit t.succ.(v);
      state.(v) <- 2;
      out := v :: !out
  in
  for v = 0 to t.n - 1 do
    visit v
  done;
  !out
