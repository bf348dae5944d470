(* Tests for the Dinic max-flow used by the cut finder: known graphs plus
   a cross-check against an independent Edmonds-Karp implementation on
   random networks. *)

module Maxflow = Fgv_graph.Maxflow

let check_int = Alcotest.(check int)

let test_single_edge () =
  let g = Maxflow.create 2 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:7;
  check_int "single edge" 7 (Maxflow.solve g ~source:0 ~sink:1)

let test_two_paths () =
  let g = Maxflow.create 4 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:3;
  Maxflow.add_edge g ~src:1 ~dst:3 ~cap:2;
  Maxflow.add_edge g ~src:0 ~dst:2 ~cap:4;
  Maxflow.add_edge g ~src:2 ~dst:3 ~cap:5;
  check_int "two paths" 6 (Maxflow.solve g ~source:0 ~sink:3)

let test_classic () =
  (* classic CLRS example; max flow 23 *)
  let g = Maxflow.create 6 in
  let e = Maxflow.add_edge g in
  e ~src:0 ~dst:1 ~cap:16;
  e ~src:0 ~dst:2 ~cap:13;
  e ~src:1 ~dst:2 ~cap:10;
  e ~src:2 ~dst:1 ~cap:4;
  e ~src:1 ~dst:3 ~cap:12;
  e ~src:3 ~dst:2 ~cap:9;
  e ~src:2 ~dst:4 ~cap:14;
  e ~src:4 ~dst:3 ~cap:7;
  e ~src:3 ~dst:5 ~cap:20;
  e ~src:4 ~dst:5 ~cap:4;
  check_int "clrs" 23 (Maxflow.solve g ~source:0 ~sink:5)

let test_disconnected () =
  let g = Maxflow.create 3 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:5;
  check_int "no path" 0 (Maxflow.solve g ~source:0 ~sink:2)

let test_cut_tags () =
  (* a -1-> b -9-> c: the min cut is the tagged cheap edge *)
  let g = Maxflow.create 3 in
  Maxflow.add_edge ~tag:42 g ~src:0 ~dst:1 ~cap:1;
  Maxflow.add_edge ~tag:7 g ~src:1 ~dst:2 ~cap:9;
  let flow = Maxflow.solve g ~source:0 ~sink:2 in
  check_int "flow" 1 flow;
  Alcotest.(check (list int)) "cut tags" [ 42 ]
    (Maxflow.cut_edge_tags g ~side:(Maxflow.source_side g ~source:0))

(* Independent Edmonds-Karp implementation for cross-checking. *)
let edmonds_karp n edges ~source ~sink =
  let cap = Array.make_matrix n n 0 in
  List.iter (fun (s, d, c) -> cap.(s).(d) <- cap.(s).(d) + c) edges;
  let total = ref 0 in
  let rec loop () =
    let parent = Array.make n (-1) in
    parent.(source) <- source;
    let q = Queue.create () in
    Queue.add source q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      for w = 0 to n - 1 do
        if parent.(w) < 0 && cap.(v).(w) > 0 then begin
          parent.(w) <- v;
          Queue.add w q
        end
      done
    done;
    if parent.(sink) >= 0 then begin
      let rec bottleneck v acc =
        if v = source then acc
        else bottleneck parent.(v) (min acc cap.(parent.(v)).(v))
      in
      let b = bottleneck sink max_int in
      let rec push v =
        if v <> source then begin
          cap.(parent.(v)).(v) <- cap.(parent.(v)).(v) - b;
          cap.(v).(parent.(v)) <- cap.(v).(parent.(v)) + b;
          push parent.(v)
        end
      in
      push sink;
      total := !total + b;
      loop ()
    end
  in
  loop ();
  !total

let random_graph_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* nedges = int_range 0 20 in
  let* edges =
    list_size (return nedges)
      (tup3 (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 10))
  in
  return (n, edges)

let prop_matches_edmonds_karp =
  QCheck2.Test.make ~name:"Dinic matches Edmonds-Karp on random graphs"
    ~count:300 random_graph_gen
    (fun (n, edges) ->
      let edges = List.filter (fun (s, d, _) -> s <> d) edges in
      let g = Maxflow.create n in
      List.iter (fun (s, d, c) -> Maxflow.add_edge g ~src:s ~dst:d ~cap:c) edges;
      let source = 0 and sink = n - 1 in
      Maxflow.solve g ~source ~sink = edmonds_karp n edges ~source ~sink)

let prop_cut_separates =
  QCheck2.Test.make ~name:"removing the min-cut edges disconnects s from t"
    ~count:300 random_graph_gen
    (fun (n, edges) ->
      let edges = List.filter (fun (s, d, _) -> s <> d) edges in
      let g = Maxflow.create n in
      List.iteri
        (fun tag (s, d, c) -> Maxflow.add_edge ~tag g ~src:s ~dst:d ~cap:c)
        edges;
      let source = 0 and sink = n - 1 in
      ignore (Maxflow.solve g ~source ~sink);
      let cut = Maxflow.cut_edge_tags g ~side:(Maxflow.source_side g ~source) in
      (* reachability without the cut edges must not reach t *)
      let kept = List.filteri (fun tag _ -> not (List.mem tag cut)) edges in
      let seen = Array.make n false in
      let rec visit = function
        | [] -> ()
        | v :: rest when seen.(v) -> visit rest
        | v :: rest ->
          seen.(v) <- true;
          let succ = List.filter (fun (s, _, _) -> s = v) kept in
          visit (List.map (fun (_, d, _) -> d) succ @ rest)
      in
      visit [ source ];
      not seen.(sink))

(* The flat-array Dinic against the record-based one it replaced
   (Harness.Maxflow_reference): on the same insertion sequence, the same
   flow, augmenting paths, residual source side and cut tags.  Zero
   capacities, untagged edges, parallel edges and nodes added after
   [create] are all drawn. *)
let reference_network_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 12 in
  let* extra = int_range 0 2 in
  let* nedges = int_range 0 40 in
  let+ edges =
    list_size (return nedges)
      (tup4 (int_range 0 (n + extra - 1)) (int_range 0 (n + extra - 1))
         (int_range 0 12) (int_range (-1) 6))
  in
  (n, extra, List.filter (fun (s, d, _, _) -> s <> d) edges)

let prop_matches_reference =
  QCheck2.Test.make ~name:"flat-array Dinic equals the record-based reference"
    ~count:500 reference_network_gen (fun (n, extra, edges) ->
      let module R = Harness.Maxflow_reference in
      let g = Maxflow.create n and r = R.create n in
      for _ = 1 to extra do
        ignore (Maxflow.add_node g);
        ignore (R.add_node r)
      done;
      List.iter
        (fun (src, dst, cap, tag) ->
          Maxflow.add_edge ~tag g ~src ~dst ~cap;
          R.add_edge ~tag r ~src ~dst ~cap)
        edges;
      let source = 0 and sink = n + extra - 1 in
      let flow = Maxflow.solve g ~source ~sink in
      let flow_r = R.solve r ~source ~sink in
      let side = Maxflow.source_side g ~source in
      let side_r = R.source_side r ~source in
      flow = flow_r
      && Maxflow.augmenting_paths g = R.augmenting_paths r
      && side = side_r
      && Maxflow.cut_edge_tags g ~side = R.cut_edge_tags r ~side:side_r)

let suite =
  [
    Alcotest.test_case "single edge" `Quick test_single_edge;
    Alcotest.test_case "two paths" `Quick test_two_paths;
    Alcotest.test_case "clrs example" `Quick test_classic;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "cut tags" `Quick test_cut_tags;
    QCheck_alcotest.to_alcotest prop_matches_edmonds_karp;
    QCheck_alcotest.to_alcotest prop_cut_separates;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
