(* Unit and property tests for the condition optimizations (SIV-A):
   redundant condition elimination, coalescing, promotion guards — plus
   the versioning cut finder on hand-built dependence graphs. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning

(* a tiny function supplying argument values for ranges *)
let mk_func () =
  let open Builder in
  let b = create ~name:"t" ~params:[ ("a", Ir.Tint); ("b", Ir.Tint) ] in
  let a = arg b 0 ~ty:Ir.Tint in
  let bb = arg b 1 ~ty:Ir.Tint in
  let f = finish b in
  (f, a, bb)

let range base lo len =
  {
    Scev.lo = Linexp.add_const lo (Linexp.of_value base);
    hi = Linexp.add_const (lo + len) (Linexp.of_value base);
  }

let test_range_offset () =
  let _, a, b = mk_func () in
  Alcotest.(check (option int)) "shifted by 7" (Some 7)
    (V.Condopt.range_offset (range a 7 4) (range a 0 4));
  Alcotest.(check (option int)) "different stretch" None
    (V.Condopt.range_offset (range a 0 4) (range a 0 6));
  Alcotest.(check (option int)) "different bases" None
    (V.Condopt.range_offset (range a 0 4) (range b 0 4))

let test_rce_equivalence () =
  let _, a, b = mk_func () in
  (* intersects([a,a+10),[b,b+2)) ≡ intersects([a+100,a+110),[b+100,b+102))
     — the paper's own example *)
  let at1 = Depcond.Aintersect (range a 0 10, range b 0 2) in
  let at2 = Depcond.Aintersect (range a 100 10, range b 100 2) in
  Alcotest.(check bool) "paper's RCE example" true
    (V.Condopt.atoms_equivalent at1 at2);
  (* swapped operands also count *)
  let at3 = Depcond.Aintersect (range b 100 2, range a 100 10) in
  Alcotest.(check bool) "swapped equivalence" true
    (V.Condopt.atoms_equivalent at1 at3);
  (* different shifts on each side do not *)
  let at4 = Depcond.Aintersect (range a 100 10, range b 50 2) in
  Alcotest.(check bool) "unequal shifts differ" false
    (V.Condopt.atoms_equivalent at1 at4);
  Alcotest.(check int) "eliminate_redundant keeps one" 1
    (List.length (V.Condopt.eliminate_redundant [ at1; at2; at3 ]))

let test_coalesce_hull () =
  let _, a, b = mk_func () in
  (* the paper's example: [a,a+10) vs [b,b+10) and [a+20,a+30) vs
     [b+40,b+50) coalesce into [a,a+30) vs [b,b+50) *)
  let at1 = Depcond.Aintersect (range a 0 10, range b 0 10) in
  let at2 = Depcond.Aintersect (range a 20 10, range b 40 10) in
  match V.Condopt.coalesce [ at1; at2 ] with
  | [ Depcond.Aintersect (r1, r2) ] ->
    Alcotest.(check (option int)) "hull a side lo" (Some 0)
      (Linexp.diff r1.Scev.lo (Linexp.of_value a));
    Alcotest.(check (option int)) "hull a side hi" (Some 30)
      (Linexp.diff r1.Scev.hi (Linexp.of_value a));
    Alcotest.(check (option int)) "hull b side hi" (Some 50)
      (Linexp.diff r2.Scev.hi (Linexp.of_value b))
  | l -> Alcotest.failf "expected one coalesced atom, got %d" (List.length l)

(* Coalescing must over-approximate: whenever an original check fires
   (ranges overlap), the hull check fires too. *)
let prop_coalesce_overapproximates =
  let open QCheck2.Gen in
  let gen = tup4 (int_range 0 20) (int_range 1 6) (int_range 0 20) (int_range 1 6) in
  QCheck2.Test.make ~name:"coalesced checks imply original checks" ~count:300
    (tup2 gen gen)
    (fun (((l1, w1, l2, w2) as _g1), (l3, w3, l4, w4)) ->
      let _, a, b = mk_func () in
      let at1 = Depcond.Aintersect (range a l1 w1, range b l2 w2) in
      let at2 = Depcond.Aintersect (range a l3 w3, range b l4 w4) in
      match V.Condopt.coalesce [ at1; at2 ] with
      | [ Depcond.Aintersect (h1, h2) ] ->
        (* concretely evaluate both on a grid of address bindings *)
        let overlap lo1 hi1 lo2 hi2 = lo1 < hi2 && lo2 < hi1 in
        let eval_atom la lb (r1 : Scev.range) (r2 : Scev.range) =
          let ev e =
            Linexp.constant e
            + List.fold_left
                (fun acc (v, k) -> acc + (k * if v = a then la else lb))
                0 (Linexp.terms e)
          in
          overlap (ev r1.Scev.lo) (ev r1.Scev.hi) (ev r2.Scev.lo) (ev r2.Scev.hi)
        in
        List.for_all
          (fun la ->
            List.for_all
              (fun lb ->
                let orig =
                  eval_atom la lb (range a l1 w1) (range b l2 w2)
                  || eval_atom la lb (range a l3 w3) (range b l4 w4)
                in
                let hull = eval_atom la lb h1 h2 in
                (not orig) || hull)
              [ 0; 5; 10; 15; 25; 40 ])
          [ 0; 5; 10; 15; 25; 40 ]
      | _ -> true (* not coalescible: nothing to check *))

(* The hashed elimination and coalescing against the pairwise ones they
   replaced (Harness.Condopt_reference), on random atom lists: a few
   base checks over two arguments and constants, copies of them shifted
   by one constant, swapped, or with their bounds stretched apart (the
   coalescing candidates), and predicates, in random order and with
   repeats. *)
let random_atoms a b rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let small () = Random.State.int rng 17 - 8 in
  let terms () =
    pick
      [ Linexp.const 0; Linexp.of_value a; Linexp.of_value b;
        Linexp.add (Linexp.of_value a) (Linexp.scale 2 (Linexp.of_value b)) ]
  in
  let range () =
    let lo = terms () in
    let hi = if Random.State.int rng 4 = 0 then terms () else lo in
    { Scev.lo = Linexp.add_const (small ()) lo; hi = Linexp.add_const (small ()) hi }
  in
  let shift d (r : Scev.range) =
    { Scev.lo = Linexp.add_const d r.Scev.lo; hi = Linexp.add_const d r.Scev.hi }
  in
  let stretch (r : Scev.range) =
    { Scev.lo = Linexp.add_const (small ()) r.Scev.lo;
      hi = Linexp.add_const (small ()) r.Scev.hi }
  in
  let bases =
    List.init (1 + Random.State.int rng 3) (fun _ -> (range (), range ()))
  in
  let atom () =
    let r1, r2 = pick bases in
    let r1, r2 =
      match Random.State.int rng 3 with
      | 0 -> (r1, r2)
      | 1 ->
        let d = small () in
        (shift d r1, shift d r2)
      | _ -> (stretch r1, stretch r2)
    in
    if Random.State.int rng 6 = 0 then
      Depcond.Apred (Pred.lit ~positive:(Random.State.bool rng) (pick [ a; b ]))
    else if Random.State.bool rng then Depcond.Aintersect (r2, r1)
    else Depcond.Aintersect (r1, r2)
  in
  let fresh = List.init (Random.State.int rng 10) (fun _ -> atom ()) in
  (* repeats share the atom physically, as a concatenation would *)
  if fresh <> [] && Random.State.int rng 3 = 0 then fresh @ [ pick fresh ]
  else fresh

let prop_condopt_matches_reference =
  QCheck2.Test.make
    ~name:"hashed elimination and coalescing equal the pairwise reference"
    ~count:1000 (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let module R = Harness.Condopt_reference in
      let _, a, b = mk_func () in
      let atoms = random_atoms a b (Random.State.make [| seed |]) in
      let same xs ys =
        List.equal (fun x y -> Depcond.compare_atom x y = 0) xs ys
      in
      let kept = V.Condopt.eliminate_redundant atoms in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> V.Condopt.atoms_equivalent x y = R.atoms_equivalent x y)
            atoms)
        atoms
      && same kept (R.eliminate_redundant atoms)
      && same (V.Condopt.coalesce kept) (R.coalesce kept)
      && same (V.Condopt.coalesce atoms) (R.coalesce atoms))

(* ------------------------------------------------------------- cuts *)

let test_cut_prefers_conditional () =
  (* stores to a[0] and a[1] with a possibly-aliasing store to b[k] in
     between: the cut must contain only conditional (intersection)
     edges, and removing them separates the stores *)
  let f =
    Harness.compile ~restrict:false
      {|
      kernel k(float* a, float* b, int m) {
        a[0] = 1.0;
        b[m] = 2.0;
        a[1] = 3.0;
      }
    |}
  in
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let stores =
    List.filter_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with
          | Ir.Store { value; _ } -> (
            match (Ir.inst f value).Ir.kind with
            | Ir.Const (Ir.Cfloat x) when x <> 2.0 -> Some (Depgraph.node_index g (Ir.NI v))
            | _ -> None)
          | _ -> None)
        | _ -> None)
      f.Ir.fbody
  in
  match V.Cut.find g ~excluded:(fun _ -> false) ~s:stores ~t:stores with
  | None -> Alcotest.fail "expected a feasible cut"
  | Some cut ->
    Alcotest.(check bool) "nonempty cut" true (cut.V.Cut.cut_edges <> []);
    List.iter
      (fun e ->
        match e.Depgraph.e_cond with
        | Some _ -> ()
        | None -> Alcotest.fail "cut contains an unconditional edge")
      cut.V.Cut.cut_edges;
    (* removing the cut edges separates the stores *)
    let excl id = List.mem id (List.map (fun e -> e.Depgraph.e_id) cut.V.Cut.cut_edges) in
    Alcotest.(check bool) "separated" false
      (Depgraph.depends_on g ~excluded:excl stores stores)

let test_cut_infeasible_on_ssa_dep () =
  (* a store that reads the other store's... a load chain: making a store
     independent of the load it consumes is impossible *)
  let f =
    Harness.compile ~restrict:false
      "kernel k(float* a) { float x = a[0]; a[1] = x; }"
  in
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let node p =
    Array.to_list g.Depgraph.nodes
    |> List.find_map (fun n ->
           match n with
           | Ir.NI v when p (Ir.inst f v).Ir.kind -> Some (Depgraph.node_index g n)
           | _ -> None)
    |> Option.get
  in
  let load = node (function Ir.Load _ -> true | _ -> false) in
  let store = node (function Ir.Store _ -> true | _ -> false) in
  Alcotest.(check bool) "store -> load separation infeasible" true
    (V.Cut.find g ~excluded:(fun _ -> false) ~s:[ store ] ~t:[ load ] = None)

let test_profile_weighted_cut () =
  (* with profile weights, the cut prefers the unlikely edge *)
  let f =
    Harness.compile ~restrict:false
      {|
      kernel k(float* a, float* b, float* c) {
        a[0] = 1.0;
        b[0] = 2.0;
        c[0] = 3.0;
        a[1] = 4.0;
      }
    |}
  in
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let stores_a =
    List.filter_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with
          | Ir.Store { value; _ } -> (
            match (Ir.inst f value).Ir.kind with
            | Ir.Const (Ir.Cfloat (1.0 | 4.0)) ->
              Some (Depgraph.node_index g (Ir.NI v))
            | _ -> None)
          | _ -> None)
        | _ -> None)
      f.Ir.fbody
  in
  (* make one conditional edge expensive: the min-cut must avoid it and
     pick the other one(s) *)
  match
    V.Cut.find g
      ~weight:(fun e -> if e.Depgraph.e_id mod 2 = 0 then 10 else 1)
      ~excluded:(fun _ -> false) ~s:stores_a ~t:stores_a
  with
  | None -> Alcotest.fail "expected a cut"
  | Some cut ->
    let cost =
      List.fold_left
        (fun acc e -> acc + if e.Depgraph.e_id mod 2 = 0 then 10 else 1)
        0 cut.V.Cut.cut_edges
    in
    (* the unweighted cut of this graph has 2 edges; the weighted cut
       must not be more expensive than any 2-edge selection of cheap
       edges would allow *)
    Alcotest.(check bool) "weighted cut avoids expensive edges" true (cost <= 11)

(* ----------------------------------------------------- golden statistics *)

(* Lock the condition-optimization work counters (§VI: eliminated,
   coalesced, promoted) on two representative kernels.  Drift here means
   SIV-A behaviour changed — re-record deliberately, never ignore. *)

module Tm = Fgv_support.Telemetry
module W = Fgv_bench.Workload

let condopt_golden ~config name kernels expected =
  let k = List.find (fun k -> k.W.k_name = name) kernels in
  Tm.reset ();
  ignore (W.compile config k);
  let actual = Tm.counters () in
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want
        (try List.assoc name actual with Not_found -> 0))
    expected

let test_golden_condopt_s131 () =
  condopt_golden
    ~config:("sv+v", true)
    "s131" Fgv_bench.Tsvc.kernels
    [
      ("condopt.eliminated", 12);
      ("condopt.coalesced", 8);
      ("condopt.promoted_precise", 0);
      ("condopt.promoted_imprecise", 0);
      ("condopt.promote_failed", 4);
    ]

let test_golden_condopt_lbm_rle () =
  condopt_golden
    ~config:("rle", true)
    "lbm_r" Fgv_bench.Specfp.kernels
    [
      ("condopt.eliminated", 0);
      ("condopt.coalesced", 0);
      ("condopt.promoted_imprecise", 1);
      ("pass.rle.eliminated", 5);
      ("pass.rle.groups", 2);
      ("cut.infeasible", 1);
      ("plan.infeasible", 1);
    ]

let suite =
  [
    Alcotest.test_case "range offsets" `Quick test_range_offset;
    Alcotest.test_case "RCE equivalence (paper example)" `Quick test_rce_equivalence;
    Alcotest.test_case "coalescing hull (paper example)" `Quick test_coalesce_hull;
    QCheck_alcotest.to_alcotest prop_coalesce_overapproximates;
    Alcotest.test_case "cut contains only conditional edges" `Quick
      test_cut_prefers_conditional;
    Alcotest.test_case "cut infeasible across SSA dependence" `Quick
      test_cut_infeasible_on_ssa_dep;
    Alcotest.test_case "profile-weighted cut" `Quick test_profile_weighted_cut;
    Alcotest.test_case "golden condopt stats: s131" `Quick test_golden_condopt_s131;
    Alcotest.test_case "golden condopt stats: lbm_r RLE" `Quick
      test_golden_condopt_lbm_rle;
    QCheck_alcotest.to_alcotest prop_condopt_matches_reference;
  ]
