(* Dinic's maximum-flow algorithm with min-cut extraction.

   The versioning framework (Fig. 8 of the paper) reduces "find a set of
   conditional dependence edges whose removal separates S from T" to
   min-cut.  Capacities are integers; conditional edges get capacity 1 and
   everything else gets n+1 so that a feasible cut never severs an
   unconditional edge. *)

type edge = {
  dst : int;
  mutable cap : int;
  rev : int;           (* index of the reverse edge in adj.(dst) *)
  original_cap : int;
  tag : int;           (* client tag, -1 for internal/reverse edges *)
}

type t = {
  mutable nodes : int;
  mutable adj : edge array array;   (* filled at [solve] time *)
  mutable staged : (int * int * int * int) list;  (* src, dst, cap, tag *)
  mutable frozen : bool;
  mutable augmenting : int;         (* augmenting paths found by [solve] *)
}

let create n =
  { nodes = n; adj = [||]; staged = []; frozen = false; augmenting = 0 }

let add_node t =
  if t.frozen then invalid_arg "Maxflow.add_node: already solved";
  let id = t.nodes in
  t.nodes <- t.nodes + 1;
  id

let add_edge ?(tag = -1) t ~src ~dst ~cap =
  if t.frozen then invalid_arg "Maxflow.add_edge: already solved";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  t.staged <- (src, dst, cap, tag) :: t.staged

let freeze t =
  if not t.frozen then begin
    let counts = Array.make t.nodes 0 in
    List.iter
      (fun (s, d, _, _) ->
        counts.(s) <- counts.(s) + 1;
        counts.(d) <- counts.(d) + 1)
      t.staged;
    t.adj <-
      Array.init t.nodes (fun i ->
          Array.make counts.(i)
            { dst = -1; cap = 0; rev = -1; original_cap = 0; tag = -1 });
    let fill = Array.make t.nodes 0 in
    (* staged list is reversed insertion order; order is irrelevant *)
    List.iter
      (fun (s, d, cap, tag) ->
        let is_ = fill.(s) and id_ = fill.(d) in
        t.adj.(s).(is_) <- { dst = d; cap; rev = id_; original_cap = cap; tag };
        t.adj.(d).(id_) <- { dst = s; cap = 0; rev = is_; original_cap = 0; tag = -1 };
        fill.(s) <- is_ + 1;
        fill.(d) <- id_ + 1)
      t.staged;
    t.frozen <- true
  end

let bfs t ~source ~sink level =
  Array.fill level 0 (Array.length level) (-1);
  let q = Queue.create () in
  level.(source) <- 0;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun e ->
        if e.cap > 0 && level.(e.dst) < 0 then begin
          level.(e.dst) <- level.(v) + 1;
          Queue.add e.dst q
        end)
      t.adj.(v)
  done;
  level.(sink) >= 0

let rec dfs t ~sink level iter v pushed =
  if v = sink then pushed
  else begin
    let result = ref 0 in
    let continue = ref true in
    while !continue && iter.(v) < Array.length t.adj.(v) do
      let e = t.adj.(v).(iter.(v)) in
      if e.cap > 0 && level.(e.dst) = level.(v) + 1 then begin
        let d = dfs t ~sink level iter e.dst (min pushed e.cap) in
        if d > 0 then begin
          e.cap <- e.cap - d;
          let r = t.adj.(e.dst).(e.rev) in
          r.cap <- r.cap + d;
          result := d;
          continue := false
        end
        else iter.(v) <- iter.(v) + 1
      end
      else iter.(v) <- iter.(v) + 1
    done;
    !result
  end

let solve t ~source ~sink =
  freeze t;
  let level = Array.make t.nodes (-1) in
  let flow = ref 0 in
  while bfs t ~source ~sink level do
    let iter = Array.make t.nodes 0 in
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
  let stack = ref [ source ] in
  seen.(source) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Array.iter
        (fun e ->
          if e.cap > 0 && not seen.(e.dst) then begin
            seen.(e.dst) <- true;
            stack := e.dst :: !stack
          end)
        t.adj.(v)
  done;
  seen

(* Tags of saturated forward edges crossing the cut (source side ->
   sink side), excluding untagged edges; [side] is the [source_side]. *)
let cut_edge_tags t ~side =
  let tags = ref [] in
  Array.iteri
    (fun v edges ->
      if side.(v) then
        Array.iter
          (fun e ->
            if e.tag >= 0 && e.original_cap > 0 && not side.(e.dst) then
              tags := e.tag :: !tags)
          edges)
    t.adj;
  List.sort_uniq compare !tags
