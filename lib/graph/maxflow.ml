(* Dinic's maximum-flow algorithm with min-cut extraction.

   The versioning framework (Fig. 8 of the paper) reduces "find a set of
   conditional dependence edges whose removal separates S from T" to
   min-cut.  Capacities are integers; conditional edges get capacity 1 and
   everything else gets n+1 so that a feasible cut never severs an
   unconditional edge.

   Representation: flat int arrays.  Edges are staged four ints apiece
   (src, dst, cap, tag) in a growable array; [solve] freezes them into a
   compressed adjacency (CSR): node [v]'s arcs are the indices
   [first.(v) .. first.(v+1) - 1] of [dst], [cap] (residual capacity),
   [pair] (index of the paired arc) and [tag].  A staged edge becomes a
   forward arc and a zero-capacity reverse arc.

   Arc order is part of the result: BFS levels, the DFS's choices and so
   the augmenting paths and the cut depend on it.  Each node's arcs are
   laid out in reverse insertion order, the order the earlier
   list-of-records version walked its staged list in, so every query
   sees the same paths it always did. *)

type t = {
  mutable nodes : int;
  mutable staged : int array; (* src, dst, cap, tag per edge *)
  mutable n_staged : int;
  mutable first : int array; (* the CSR below, filled at [solve] *)
  mutable dst : int array;
  mutable cap : int array;
  mutable pair : int array;
  mutable tag : int array; (* -1: reverse arc, untagged or zero-capacity *)
  mutable frozen : bool;
  mutable augmenting : int; (* augmenting paths found by [solve] *)
}

let create n =
  {
    nodes = n;
    staged = Array.make 64 0;
    n_staged = 0;
    first = [||];
    dst = [||];
    cap = [||];
    pair = [||];
    tag = [||];
    frozen = false;
    augmenting = 0;
  }

let add_node t =
  if t.frozen then invalid_arg "Maxflow.add_node: already solved";
  let id = t.nodes in
  t.nodes <- t.nodes + 1;
  id

let add_edge ?(tag = -1) t ~src ~dst ~cap =
  if t.frozen then invalid_arg "Maxflow.add_edge: already solved";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  let k = 4 * t.n_staged in
  if k + 4 > Array.length t.staged then begin
    let grown = Array.make (2 * Array.length t.staged) 0 in
    Array.blit t.staged 0 grown 0 k;
    t.staged <- grown
  end;
  let s = t.staged in
  s.(k) <- src;
  s.(k + 1) <- dst;
  s.(k + 2) <- cap;
  s.(k + 3) <- tag;
  t.n_staged <- t.n_staged + 1

let freeze t =
  if not t.frozen then begin
    let n = t.nodes and s = t.staged in
    let first = Array.make (n + 1) 0 in
    for e = 0 to t.n_staged - 1 do
      let src = s.(4 * e) and d = s.((4 * e) + 1) in
      first.(src + 1) <- first.(src + 1) + 1;
      first.(d + 1) <- first.(d + 1) + 1
    done;
    for v = 0 to n - 1 do
      first.(v + 1) <- first.(v + 1) + first.(v)
    done;
    let m = first.(n) in
    let dst = Array.make m (-1) and cap = Array.make m 0 in
    let pair = Array.make m (-1) and tag = Array.make m (-1) in
    let fill = Array.sub first 0 n in
    (* newest edge first: reverse insertion order *)
    for e = t.n_staged - 1 downto 0 do
      let src = s.(4 * e) and d = s.((4 * e) + 1) in
      let c = s.((4 * e) + 2) and tg = s.((4 * e) + 3) in
      let a = fill.(src) and b = fill.(d) in
      dst.(a) <- d;
      cap.(a) <- c;
      pair.(a) <- b;
      tag.(a) <- (if c > 0 then tg else -1);
      dst.(b) <- src;
      cap.(b) <- 0;
      pair.(b) <- a;
      tag.(b) <- -1;
      fill.(src) <- a + 1;
      fill.(d) <- b + 1
    done;
    t.first <- first;
    t.dst <- dst;
    t.cap <- cap;
    t.pair <- pair;
    t.tag <- tag;
    t.staged <- [||];
    t.frozen <- true
  end

let bfs t ~source ~sink level queue =
  Array.fill level 0 (Array.length level) (-1);
  level.(source) <- 0;
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for a = t.first.(v) to t.first.(v + 1) - 1 do
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && level.(w) < 0 then begin
        level.(w) <- level.(v) + 1;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  level.(sink) >= 0

(* [iter.(v)] is the next arc of [v] to try in this phase. *)
let rec dfs t ~sink level iter v pushed =
  if v = sink then pushed
  else begin
    let result = ref 0 in
    let stop = t.first.(v + 1) in
    while !result = 0 && iter.(v) < stop do
      let a = iter.(v) in
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && level.(w) = level.(v) + 1 then begin
        let d = dfs t ~sink level iter w (min pushed t.cap.(a)) in
        if d > 0 then begin
          t.cap.(a) <- t.cap.(a) - d;
          let r = t.pair.(a) in
          t.cap.(r) <- t.cap.(r) + d;
          result := d
        end
        else iter.(v) <- a + 1
      end
      else iter.(v) <- a + 1
    done;
    !result
  end

let solve t ~source ~sink =
  freeze t;
  let level = Array.make t.nodes (-1) in
  let queue = Array.make t.nodes 0 in
  let iter = Array.make t.nodes 0 in
  let flow = ref 0 in
  while bfs t ~source ~sink level queue do
    Array.blit t.first 0 iter 0 t.nodes;
    let pushed = ref (dfs t ~sink level iter source max_int) in
    while !pushed > 0 do
      flow := !flow + !pushed;
      t.augmenting <- t.augmenting + 1;
      pushed := dfs t ~sink level iter source max_int
    done
  done;
  !flow

let augmenting_paths t = t.augmenting

(* Source side of the min cut: nodes reachable from the source in the
   residual graph.  Must be called after [solve].  Explicit worklist
   rather than recursion: residual reachability can chain through every
   node, and a deep graph must not overflow the stack. *)
let source_side t ~source =
  if not t.frozen then invalid_arg "Maxflow.source_side: call solve first";
  let seen = Array.make t.nodes false in
  let stack = Array.make t.nodes 0 in
  let top = ref 1 in
  stack.(0) <- source;
  seen.(source) <- true;
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    for a = t.first.(v) to t.first.(v + 1) - 1 do
      let w = t.dst.(a) in
      if t.cap.(a) > 0 && not seen.(w) then begin
        seen.(w) <- true;
        stack.(!top) <- w;
        incr top
      end
    done
  done;
  seen

(* Tags of saturated forward edges crossing the cut (source side ->
   sink side), excluding untagged edges; [side] is the [source_side]. *)
let cut_edge_tags t ~side =
  let tags = ref [] in
  for v = 0 to t.nodes - 1 do
    if side.(v) then
      for a = t.first.(v) to t.first.(v + 1) - 1 do
        if t.tag.(a) >= 0 && not side.(t.dst.(a)) then
          tags := t.tag.(a) :: !tags
      done
  done;
  List.sort_uniq compare !tags
