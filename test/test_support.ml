(* Tests for the support utilities. *)

module Stats = Fgv_support.Stats
module Table = Fgv_support.Table
module Digraph = Fgv_graph.Digraph

let test_stats () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Stats.speedup ~base:4.0 ~opt:2.0)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "name   value" || String.length l > 0) lines);
  (* right alignment of the numeric column *)
  Alcotest.(check bool) "aligned" true
    (List.exists
       (fun l -> l <> "" && l.[String.length l - 1] = '1')
       (String.split_on_char '\n' s))

let test_digraph_reachability () =
  let g = Digraph.create 5 in
  Digraph.add_edge g ~src:0 ~dst:1;
  Digraph.add_edge g ~src:1 ~dst:2;
  Digraph.add_edge g ~src:3 ~dst:4;
  let r = Digraph.reachable g [ 0 ] in
  Alcotest.(check bool) "0 reaches 2" true r.(2);
  Alcotest.(check bool) "0 does not reach 4" false r.(4);
  let co = Digraph.co_reachable g [ 2 ] in
  Alcotest.(check bool) "0 co-reaches 2" true co.(0);
  let order = Digraph.topological_sort g in
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  Alcotest.(check bool) "topo order" true (pos 0 < pos 1 && pos 1 < pos 2)

let test_digraph_cycle () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~src:0 ~dst:1;
  Digraph.add_edge g ~src:1 ~dst:0;
  match Digraph.topological_sort g with
  | exception Digraph.Cycle _ -> ()
  | _ -> Alcotest.fail "expected cycle detection"

let suite =
  [
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "digraph reachability" `Quick test_digraph_reachability;
    Alcotest.test_case "digraph cycle detection" `Quick test_digraph_cycle;
  ]
