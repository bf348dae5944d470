(* Unit tests for the analysis layer: linear expressions, SCEV,
   alias relations, and dependence conditions (Fig. 6). *)

open Fgv_pssa
open Fgv_analysis
open Harness

(* ------------------------------------------------------------- linexp *)

let test_linexp_algebra () =
  let open Linexp in
  let a = of_value 1 and b = of_value 2 in
  let e = add (scale 3 a) (add_const 5 b) in
  Alcotest.(check (option int)) "diff of shifted" (Some 7)
    (diff (add_const 7 e) e);
  Alcotest.(check (option int)) "diff unrelated" None (diff a b);
  Alcotest.(check bool) "x - x is const 0" true (is_const (sub a a));
  Alcotest.(check int) "konst" 5 (constant (add_const 5 (of_value 3)));
  (* substitution: 3a + b + 5 with a := b + 1 -> 4b + 8 *)
  let s = subst 1 (add_const 5 (add (scale 3 a) b)) (add_const 1 b) in
  Alcotest.(check (option int)) "subst result" (Some 0)
    (diff s (add_const 8 (scale 4 b)));
  Alcotest.(check bool) "mentions" true (mentions e 1);
  Alcotest.(check bool) "not mentions" false (mentions e 9)

(* [add], [sub], [diff] and [subst] walk already-normalized term lists;
   [make] is the normalizing reference they must agree with.  Ids repeat
   (so merges sum and cancel), and coefficients include the extremes,
   whose sums and products wrap (min_int + min_int = 0). *)
let prop_linexp_add_commutes =
  let coeff =
    QCheck2.Gen.(
      oneof
        [
          int_range (-5) 5;
          oneofl [ max_int; max_int - 1; min_int; min_int + 1; -max_int ];
        ])
  in
  let term_list =
    QCheck2.Gen.(list_size (int_range 0 6) (tup2 (int_range 0 4) coeff))
  in
  QCheck2.Test.make ~name:"linexp add commutes/normalizes" ~count:500
    QCheck2.Gen.(tup3 term_list term_list (int_range 0 4))
    (fun (t1, t2, v) ->
      let open Linexp in
      let e1 = make t1 3 and e2 = make t2 (-4) in
      let neg = List.map (fun (w, c) -> (w, -c)) in
      let folded =
        List.fold_left
          (fun acc (w, c) -> add acc (scale c (of_value w)))
          (const 3) t1
      in
      let d = make (t1 @ neg t2) 7 in
      let subst_ref =
        match List.assoc_opt v (terms e1) with
        | None -> e1
        | Some c ->
          make
            (List.filter (fun (w, _) -> w <> v) t1
            @ List.map (fun (w, k) -> (w, c * k)) t2)
            (3 + (c * -4))
      in
      equal e1 folded
      && equal (add e1 e2) (make (t1 @ t2) (-1))
      && equal (add e2 e1) (add e1 e2)
      && equal (sub e1 e2) d
      && diff e1 e2 = (if is_const d then Some 7 else None)
      && diff (add e1 e2) (make (t2 @ t1) 5) = Some (-6)
      && equal (subst v e1 e2) subst_ref)

(* --------------------------------------------------------------- scev *)

let sum_with_stride_src =
  {|
  kernel k(float* a, float* b, int n) {
    for (int i = 0; i < n; i = i + 1) {
      a[i * 2 + 3] = b[i] + 1.0;
    }
  }
|}

let test_scev_affine () =
  let f = compile sum_with_stride_src in
  let scev = Scev.create f in
  (* find the loop and its mu *)
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let mu = List.hd lp.Ir.mus in
  (match Scev.mu_affine scev mu with
  | Some ma ->
    Alcotest.(check int) "stride" 1 ma.Scev.ma_stride;
    Alcotest.(check bool) "init is 0" true
      (Linexp.equal ma.Scev.ma_init (Linexp.const 0))
  | None -> Alcotest.fail "mu should be affine");
  (* trip count of for (i = 0; i < n; i++) is n *)
  (match Scev.trip scev lp with
  | Some t ->
    let n_arg =
      List.find_map
        (fun item ->
          match item with
          | Ir.I v -> (
            match (Ir.inst f v).Ir.kind with Ir.Arg 2 -> Some v | _ -> None)
          | _ -> None)
        f.Ir.fbody
      |> Option.get
    in
    Alcotest.(check bool) "trip = n" true (Linexp.equal t (Linexp.of_value n_arg))
  | None -> Alcotest.fail "trip should be known");
  (* the store address a + 2i + 3 must decompose with coefficient 2 *)
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  match Scev.range_of_access scev store with
  | Some r ->
    Alcotest.(check bool) "coefficient 2 on the mu" true
      (List.mem_assoc mu (Linexp.terms r.Scev.lo)
      && List.assoc mu (Linexp.terms r.Scev.lo) = 2)
  | None -> Alcotest.fail "store range"

let test_scev_promote () =
  let f = compile sum_with_stride_src in
  let scev = Scev.create f in
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  let r = Option.get (Scev.range_of_access scev store) in
  match Scev.promote_range scev ~out_of:(fun l -> l = lid) r with
  | Some p ->
    let mu = List.hd lp.Ir.mus in
    Alcotest.(check bool) "promoted range is loop-invariant" false
      (Linexp.mentions p.Scev.lo mu || Linexp.mentions p.Scev.hi mu)
  | None -> Alcotest.fail "promotion should succeed"

let test_descending_promote () =
  let f =
    compile
      {|
      kernel k(float* a, float* b, int n) {
        for (int i = n - 1; i >= 0; i = i - 1) { a[i] = b[i]; }
      }
    |}
  in
  let scev = Scev.create f in
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  let r = Option.get (Scev.range_of_access scev store) in
  match Scev.promote_range scev ~out_of:(fun l -> l = lid) r with
  | Some p ->
    let mu = List.hd lp.Ir.mus in
    Alcotest.(check bool) "descending promotion is invariant" false
      (Linexp.mentions p.Scev.lo mu || Linexp.mentions p.Scev.hi mu)
  | None -> Alcotest.fail "descending promotion should succeed"

(* -------------------------------------------------------------- alias *)

let test_alias_relations () =
  let f = compile "kernel k(float* restrict a, float* restrict b, float* c) { a[0] = b[0] + c[0]; }" in
  (* find the three arg values *)
  let arg n =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with
          | Ir.Arg m when m = n -> Some v
          | _ -> None)
        | _ -> None)
      f.Ir.fbody
    |> Option.get
  in
  let range base lo len =
    { Scev.lo = Linexp.add_const lo (Linexp.of_value base);
      hi = Linexp.add_const (lo + len) (Linexp.of_value base) }
  in
  let a = arg 0 and b = arg 1 and c = arg 2 in
  Alcotest.(check bool) "same base, disjoint offsets" true
    (Alias.relate f (range a 0 4) (range a 4 4) = Alias.Disjoint);
  Alcotest.(check bool) "same base, overlapping offsets" true
    (Alias.relate f (range a 0 4) (range a 3 4) = Alias.Overlap);
  Alcotest.(check bool) "identical symbolic ranges overlap" true
    (Alias.relate f (range a 0 4) (range a 0 4) = Alias.Overlap);
  Alcotest.(check bool) "restrict args are disjoint" true
    (Alias.relate f (range a 0 4) (range b 0 4) = Alias.Disjoint);
  Alcotest.(check bool) "restrict vs plain is disjoint" true
    (Alias.relate f (range a 0 4) (range c 0 4) = Alias.Disjoint);
  (* two plain pointers are unknown: recompile without restrict *)
  let f2 = Harness.compile ~restrict:false
      "kernel k(float* restrict a, float* restrict b, float* c) { a[0] = b[0] + c[0]; }" in
  let arg2 n =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f2 v).Ir.kind with
          | Ir.Arg m when m = n -> Some v
          | _ -> None)
        | _ -> None)
      f2.Ir.fbody
    |> Option.get
  in
  let range2 base lo len =
    { Scev.lo = Linexp.add_const lo (Linexp.of_value base);
      hi = Linexp.add_const (lo + len) (Linexp.of_value base) }
  in
  Alcotest.(check bool) "plain pointers are unknown" true
    (Alias.relate f2 (range2 (arg2 0) 0 4) (range2 (arg2 1) 0 4) = Alias.Unknown)

(* ------------------------------------------------- dependence conditions *)

let dep_between f (src_kind : Ir.inst_kind -> bool) (dst_kind : Ir.inst_kind -> bool) =
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let find p =
    Array.to_list g.Depgraph.nodes
    |> List.find_map (fun n ->
           match n with
           | Ir.NI v when p (Ir.inst f v).Ir.kind -> Some n
           | _ -> None)
    |> Option.get
  in
  let i = Depgraph.node_index g (find src_kind) in
  let j = Depgraph.node_index g (find dst_kind) in
  List.find_opt
    (fun e -> e.Depgraph.e_src = i && e.Depgraph.e_dst = j)
    (Array.to_list g.Depgraph.edges)

let test_depcond_memory_pair () =
  (* load *b after store *a, plain pointers: conditional intersection *)
  let f =
    Harness.compile ~restrict:false
      "kernel k(float* a, float* b) { a[0] = 1.0; float x = b[0]; a[1] = x; }"
  in
  let is_store0 = function
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  match dep_between f is_load is_store0 with
  | Some e -> (
    match e.Depgraph.e_cond with
    | Some [ Depcond.Aintersect _ ] -> ()
    | Some _ -> Alcotest.fail "expected a single intersection condition"
    | None -> Alcotest.fail "expected a conditional edge")
  | None -> Alcotest.fail "expected a dependence edge"

let test_depcond_pred_rule () =
  (* a store guarded by a condition: the later load depends on it only
     when it executes (Fig. 6's predicate rule) *)
  let f =
    Harness.compile ~restrict:false
      {|
      kernel k(float* a, float* b, int n) {
        if (n > 0) { a[0] = 1.0; }
        float x = b[0];
        a[1] = x;
      }
    |}
  in
  let is_guarded_store k =
    match k with
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  match dep_between f is_load is_guarded_store with
  | Some e -> (
    match e.Depgraph.e_cond with
    | Some [ Depcond.Apred _ ] -> ()
    | Some [ Depcond.Aintersect _ ] ->
      Alcotest.fail "expected the predicate rule, got an intersection"
    | _ -> Alcotest.fail "expected one predicate condition")
  | None -> Alcotest.fail "expected a dependence edge"

let test_depcond_restrict_kills_edge () =
  let f =
    compile
      "kernel k(float* restrict a, float* restrict b) { a[0] = 1.0; float x = b[0]; a[1] = x; }"
  in
  let is_store0 = function
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  Alcotest.(check bool) "no edge between restrict-disjoint accesses" true
    (dep_between f is_load is_store0 = None)

(* ------------------------------------------------- per-function tables *)

(* Every paper kernel after [sv+v]: versioning clones loops and values,
   so the bodies hold nested and versioned loops, and the id spaces have
   gaps where DCE deleted values. *)
let compile_versioned () =
  List.map
    (fun (k : Fgv_bench.Workload.kernel) ->
      let f = compile k.Fgv_bench.Workload.k_source in
      Fgv_passes.Pipelines.run "sv+v" f;
      (k.Fgv_bench.Workload.k_name, f))
    (Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
   @ Fgv_bench.Specfp.kernels)

(* shared by the tests that only read the functions *)
let versioned_kernels = lazy (compile_versioned ())

(* The reference walk: every placed value with its program-order
   position, enclosing loops (innermost first) and effective predicate,
   and every placed loop with its position and enclosing loops. *)
type placed = {
  values : (Ir.value_id, int * Ir.loop_id list * Pred.t) Hashtbl.t;
  loops : (Ir.loop_id, int * Ir.loop_id list) Hashtbl.t;
}

let reference_walk f =
  let r = { values = Hashtbl.create 64; loops = Hashtbl.create 8 } in
  let pos = ref 0 in
  let next () =
    incr pos;
    !pos - 1
  in
  let rec walk loops guard items =
    List.iter
      (function
        | Ir.I v ->
          let eff = Pred.and_ guard (Ir.inst f v).Ir.ipred in
          Hashtbl.replace r.values v (next (), loops, eff)
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          let guard = Pred.and_ guard lp.Ir.lpred in
          Hashtbl.replace r.loops lid (next (), loops);
          List.iter
            (fun m -> Hashtbl.replace r.values m (next (), lid :: loops, guard))
            lp.Ir.mus;
          walk (lid :: loops) guard lp.Ir.body)
      items
  in
  walk [] Pred.tru f.Ir.fbody;
  r

let not_placed = Invalid_argument "Ir.compute_order: node not in function body"

let check_not_placed what order node =
  Alcotest.check_raises what not_placed (fun () -> ignore (order node))

let check_order name f =
  let r = reference_walk f in
  let order = Ir.compute_order f in
  Hashtbl.iter
    (fun v (pos, _, _) ->
      Alcotest.(check int) (Printf.sprintf "%s: position of v%d" name v) pos
        (order (Ir.NI v)))
    r.values;
  Hashtbl.iter
    (fun l (pos, _) ->
      Alcotest.(check int) (Printf.sprintf "%s: position of L%d" name l) pos
        (order (Ir.NL l)))
    r.loops;
  (* deleted ids, and the first id past the table *)
  for v = 0 to f.Ir.next_value do
    if not (Hashtbl.mem r.values v) then
      check_not_placed (Printf.sprintf "%s: unplaced v%d" name v) order
        (Ir.NI v)
  done

let check_users name f =
  let expected = Hashtbl.create 64 in
  Ir.iter_insts f (fun i ->
      List.iter (fun v -> Hashtbl.add expected v i.Ir.id) (Ir.all_operands i));
  let users = Ir.compute_users f in
  for v = 0 to f.Ir.next_value do
    Alcotest.(check (list int)) (Printf.sprintf "%s: users of v%d" name v)
      (List.sort compare (Hashtbl.find_all expected v))
      (List.sort compare (users v))
  done

let check_effective_preds name f =
  let r = reference_walk f in
  let eff = Ir.effective_preds f in
  Ir.iter_insts f (fun i ->
      let expected =
        match Hashtbl.find_opt r.values i.Ir.id with
        | Some (_, _, p) -> p
        | None -> i.Ir.ipred
      in
      if not (Pred.equal expected (eff i.Ir.id)) then
        Alcotest.failf "%s: effective predicate of v%d" name i.Ir.id)

let region =
  Alcotest.of_pp (fun fmt r ->
      Format.pp_print_string fmt
        (match r with Ir.Rtop -> "top" | Ir.Rloop l -> Printf.sprintf "L%d" l))

let check_loop_ancestors name f =
  let r = reference_walk f in
  Hashtbl.iter
    (fun l (_, loops) ->
      let what = Printf.sprintf "%s: L%d" name l in
      Alcotest.(check (option (list int))) (what ^ " ancestors") (Some loops)
        (Ir.loop_ancestors f l);
      Alcotest.(check (option region)) (what ^ " parent")
        (Some (match loops with [] -> Ir.Rtop | p :: _ -> Ir.Rloop p))
        (Ir.loop_parent f l))
    r.loops

let check_enclosing_loops name f =
  let r = reference_walk f in
  let scev = Scev.create f in
  for v = 0 to f.Ir.next_value do
    let expected =
      match Hashtbl.find_opt r.values v with
      | Some (_, loops, _) -> loops
      | None -> []
    in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: loops enclosing v%d" name v)
      expected (Scev.enclosing_loops scev v)
  done

let on_versioned_kernels check () =
  List.iter (fun (name, f) -> check name f) (Lazy.force versioned_kernels)

let test_loop_ancestors () =
  on_versioned_kernels check_loop_ancestors ();
  Alcotest.(check bool) "some kernel has a loop nest" true
    (List.exists
       (fun (_, f) ->
         Hashtbl.fold
           (fun _ (_, loops) acc -> acc || loops <> [])
           (reference_walk f).loops false)
       (Lazy.force versioned_kernels))

(* Each table is a snapshot: values and a loop made after it was built
   read as absent even once placed, exactly as unplaced ones do; rebuilt,
   the tables see them. *)
let test_dense_snapshot () =
  List.iter
    (fun (name, f) ->
      match
        List.find_map
          (function Ir.L l -> Some (Ir.loop f l) | Ir.I _ -> None)
          f.Ir.fbody
      with
      | None -> ()
      | Some lp ->
        let order = Ir.compute_order f in
        let users = Ir.compute_users f in
        let eff = Ir.effective_preds f in
        let scev = Scev.create f in
        let operand = List.hd lp.Ir.mus in
        let guard = Pred.lit ~positive:false operand in
        (* [late] reads [last], the highest id, so a rebuilt users table
           must reach its last slot *)
        let late =
          Ir.new_inst f ~kind:(Ir.Const (Ir.Cint 0)) ~ty:Ir.Tint ~pred:guard
        in
        let last =
          Ir.new_inst f ~kind:(Ir.Binop (Ir.Add, operand, operand)) ~ty:Ir.Tint
            ~pred:guard
        in
        late.Ir.kind <- Ir.Binop (Ir.Add, last.Ir.id, last.Ir.id);
        let late_loop = Ir.new_loop f ~pred:Pred.tru in
        lp.Ir.body <-
          Ir.I last.Ir.id :: Ir.I late.Ir.id :: Ir.L late_loop.Ir.lid
          :: lp.Ir.body;
        List.iter
          (fun v ->
            let what = Printf.sprintf "%s: late v%d" name v in
            check_not_placed what order (Ir.NI v);
            Alcotest.(check (list int)) (what ^ " users") [] (users v);
            Alcotest.(check bool) (what ^ " effective predicate is its own")
              true
              (Pred.equal guard (eff v));
            Alcotest.(check (list int)) (what ^ " enclosing loops") []
              (Scev.enclosing_loops scev v))
          [ late.Ir.id; last.Ir.id ];
        Alcotest.(check bool) (name ^ ": operand's users unchanged") false
          (List.mem last.Ir.id (users operand));
        check_not_placed (name ^ ": late loop") order (Ir.NL late_loop.Ir.lid);
        (* the loop-tree walks read the live body: a loop never placed
           has no ancestors and no parent *)
        let stray = (Ir.new_loop f ~pred:Pred.tru).Ir.lid in
        Alcotest.(check (option (list int))) (name ^ ": stray loop ancestors")
          None (Ir.loop_ancestors f stray);
        Alcotest.(check (option region)) (name ^ ": stray loop parent") None
          (Ir.loop_parent f stray);
        check_order name f;
        check_users name f;
        check_effective_preds name f;
        check_loop_ancestors name f;
        check_enclosing_loops name f)
    (compile_versioned ())

(* ------------------------------------------------------------- arenas *)

let first_loop f =
  List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
  |> Option.get

(* Cloning a loop over and over takes both id spaces far past the
   arenas' initial sizes; every clone, value and loop, reads back by
   its id. *)
let test_arena_grows () =
  let f = compile sum_with_stride_src in
  let lid = first_loop f in
  let clones = ref [] in
  while f.Ir.next_value < 1_000 || f.Ir.next_loop < 50 do
    let remap = Hashtbl.create 16 in
    match Ir.clone_item f remap (Ir.L lid) with
    | Ir.L copy -> clones := (remap, copy) :: !clones
    | Ir.I _ -> Alcotest.fail "a cloned loop is a loop"
  done;
  List.iter
    (fun (remap, copy) ->
      Alcotest.(check int) "cloned loop reads back" copy (Ir.loop f copy).Ir.lid;
      Hashtbl.iter
        (fun original fresh ->
          let i = Ir.inst f fresh in
          Alcotest.(check int) "clone reads back" fresh i.Ir.id;
          Alcotest.(check string)
            (Printf.sprintf "v%d is a clone of v%d" fresh original)
            (Ir.inst f original).Ir.name i.Ir.name)
        remap)
    !clones

let test_arena_remove () =
  let f = compile sum_with_stride_src in
  let lid = first_loop f in
  let v = List.hd (Ir.loop f lid).Ir.mus in
  Ir.remove_inst f v;
  Alcotest.check_raises "removed value"
    (Invalid_argument (Printf.sprintf "Ir.inst: unknown value v%d" v))
    (fun () -> ignore (Ir.inst f v));
  Alcotest.(check string) "name of a removed value"
    (Printf.sprintf "%%DEAD.%d" v) (Ir.value_name f v);
  Ir.remove_loop f lid;
  Alcotest.check_raises "removed loop"
    (Invalid_argument (Printf.sprintf "Ir.loop: unknown loop L%d" lid))
    (fun () -> ignore (Ir.loop f lid))

let test_arena_iteration_order () =
  let f = compile sum_with_stride_src in
  let ids () =
    let acc = ref [] in
    Ir.iter_insts f (fun i -> acc := i.Ir.id :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "a fresh function's ids, ascending"
    (List.init f.Ir.next_value Fun.id)
    (ids ());
  let removed = List.filter (fun v -> v mod 3 = 1) (ids ()) in
  List.iter (Ir.remove_inst f) removed;
  Alcotest.(check (list int)) "live ids, ascending"
    (List.filter (fun v -> not (List.mem v removed)) (List.init f.Ir.next_value Fun.id))
    (ids ());
  let inner = Ir.new_loop f ~pred:Pred.tru in
  let outer = Ir.new_loop f ~pred:Pred.tru in
  Ir.remove_loop f inner.Ir.lid;
  let loops = ref [] in
  Ir.iter_loops f (fun lp -> loops := lp.Ir.lid :: !loops);
  Alcotest.(check (list int)) "live loop ids, ascending"
    [ first_loop f; outer.Ir.lid ]
    (List.rev !loops)

(* Four address groups whose first loads come in an order that is
   neither the parameters' nor, in general, a hash table's. *)
let test_rle_group_order () =
  let f =
    compile
      {|
  kernel k(float* a, float* b, float* c, float* d, float* e, int n) {
    for (int i = 0; i < n; i = i + 1) {
      e[i] = d[i] + b[i] + c[i] + a[i] + d[i] + b[i] + c[i] + a[i];
    }
  }
|}
  in
  let lid = first_loop f in
  let loads =
    List.filter_map
      (function
        | Ir.I v when Ir.may_read_inst (Ir.inst f v) -> Some v
        | _ -> None)
      (Ir.loop f lid).Ir.body
  in
  Alcotest.(check int) "eight loads" 8 (List.length loads);
  let l = Array.of_list loads in
  Alcotest.(check (list (list int))) "groups in the order of their first load"
    [ [ l.(0); l.(4) ]; [ l.(1); l.(5) ]; [ l.(2); l.(6) ]; [ l.(3); l.(7) ] ]
    (Fgv_passes.Rle.load_groups f (Scev.create f) (Ir.Rloop lid))

let suite =
  [
    Alcotest.test_case "linexp algebra" `Quick test_linexp_algebra;
    QCheck_alcotest.to_alcotest prop_linexp_add_commutes;
    Alcotest.test_case "scev affine + trip + ranges" `Quick test_scev_affine;
    Alcotest.test_case "scev promotion" `Quick test_scev_promote;
    Alcotest.test_case "scev descending promotion" `Quick test_descending_promote;
    Alcotest.test_case "alias relations" `Quick test_alias_relations;
    Alcotest.test_case "dependence condition: intersection" `Quick
      test_depcond_memory_pair;
    Alcotest.test_case "dependence condition: predicate rule" `Quick
      test_depcond_pred_rule;
    Alcotest.test_case "restrict removes the edge" `Quick
      test_depcond_restrict_kills_edge;
    Alcotest.test_case "dense order table matches a program-order walk"
      `Quick (on_versioned_kernels check_order);
    Alcotest.test_case "dense users table matches an arena walk" `Quick
      (on_versioned_kernels check_users);
    Alcotest.test_case "dense effective predicates match a guard walk"
      `Quick (on_versioned_kernels check_effective_preds);
    Alcotest.test_case "loop ancestors match a loop-tree walk" `Quick
      test_loop_ancestors;
    Alcotest.test_case "dense enclosing loops match a loop-tree walk" `Quick
      (on_versioned_kernels check_enclosing_loops);
    Alcotest.test_case "dense tables read later values as absent" `Quick
      test_dense_snapshot;
    Alcotest.test_case "arenas grow past their initial size" `Quick
      test_arena_grows;
    Alcotest.test_case "a removed value or loop reads as unknown" `Quick
      test_arena_remove;
    Alcotest.test_case "arena walks go in ascending id order" `Quick
      test_arena_iteration_order;
    Alcotest.test_case "RLE groups follow their first load" `Quick
      test_rle_group_order;
  ]
