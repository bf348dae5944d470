(* Tests for the support utilities. *)

module Stats = Fgv_support.Stats
module Table = Fgv_support.Table

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

let suite =
  [
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]
