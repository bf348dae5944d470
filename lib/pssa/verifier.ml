(* Structural well-formedness checks for PSSA functions.

   Catching a broken invariant right after the transform that introduced
   it is far cheaper than debugging a wrong interpretation result, so all
   passes re-verify in tests. *)

open Ir

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Direct enclosing loop of every placed value (None = top region), and
   the parent loop of every placed loop. *)
let enclosing_maps f =
  let value_in : (value_id, loop_id option) Hashtbl.t = Hashtbl.create 64 in
  let loop_in : (loop_id, loop_id option) Hashtbl.t = Hashtbl.create 16 in
  let rec walk enclosing items =
    List.iter
      (fun item ->
        match item with
        | I v -> Hashtbl.replace value_in v enclosing
        | L lid ->
          let lp = loop f lid in
          Hashtbl.replace loop_in lid enclosing;
          List.iter (fun m -> Hashtbl.replace value_in m (Some lid)) lp.mus;
          walk (Some lid) lp.body)
      items
  in
  walk None f.fbody;
  (value_in, loop_in)

let verify f =
  (* 1. no duplicate definitions in the body tree; everything in arena *)
  let seen_v = Hashtbl.create 64 and seen_l = Hashtbl.create 16 in
  let rec collect items =
    List.iter
      (fun item ->
        match item with
        | I v ->
          if Hashtbl.mem seen_v v then fail "value v%d defined twice" v;
          if Option.is_none (inst_opt f v) then fail "value v%d not in arena" v;
          Hashtbl.replace seen_v v ()
        | L lid ->
          let lp = loop f lid in
          if Hashtbl.mem seen_l lid then fail "loop L%d listed twice" lid;
          Hashtbl.replace seen_l lid ();
          List.iter
            (fun m ->
              if Hashtbl.mem seen_v m then fail "mu v%d defined twice" m;
              (match (inst f m).kind with
              | Mu { loop; _ } ->
                if loop <> lid then
                  fail "mu v%d references loop L%d, listed in L%d" m loop lid
              | _ -> fail "loop L%d header contains non-mu v%d" lid m);
              Hashtbl.replace seen_v m ())
            lp.mus;
          collect lp.body)
      items
  in
  collect f.fbody;
  let value_in, loop_in = enclosing_maps f in
  (* is value [v] defined inside loop [lid] at any depth? *)
  let rec in_loop lid v =
    match Hashtbl.find_opt value_in v with
    | Some (Some l) -> l = lid || loop_nested_in lid l
    | _ -> false
  and loop_nested_in lid l =
    match Hashtbl.find_opt loop_in l with
    | Some (Some parent) -> parent = lid || loop_nested_in lid parent
    | _ -> false
  in
  (* 2. defs precede uses in program order, modulo mu back-edges *)
  let order = compute_order f in
  let check_uses v =
    let i = inst f v in
    let is_back_edge o =
      match i.kind with
      | Mu { recur; loop; _ } -> o = recur && (o = v || in_loop loop o)
      | _ -> false
    in
    List.iter
      (fun o ->
        if Option.is_none (inst_opt f o) then fail "v%d uses undefined value v%d" v o;
        if not (Hashtbl.mem seen_v o) then
          fail "v%d uses value v%d that is not placed in the body" v o;
        if not (is_back_edge o) && order (NI o) >= order (NI v) then
          fail "v%d uses v%d which does not precede it" v o)
      (all_operands i)
  in
  iter_insts f (fun i -> if Hashtbl.mem seen_v i.id then check_uses i.id);
  (* 3. predicate literals are boolean *)
  iter_insts f (fun i ->
      if Hashtbl.mem seen_v i.id then
        List.iter
          (fun l ->
            if (inst f l).ty <> Tbool then
              fail "predicate of v%d uses non-boolean v%d" i.id l)
          (Pred.literals i.ipred));
  (* 4. etas reference placed loops that precede them *)
  iter_insts f (fun i ->
      if Hashtbl.mem seen_v i.id then
        match i.kind with
        | Eta { loop; _ } ->
          if not (Hashtbl.mem seen_l loop) then
            fail "eta v%d references unplaced loop L%d" i.id loop;
          if order (NL loop) >= order (NI i.id) then
            fail "eta v%d does not follow its loop L%d" i.id loop
        | _ -> ());
  (* 5. loop continue predicates only use placed values *)
  iter_loops f (fun lp ->
      if Hashtbl.mem seen_l lp.lid then
        List.iter
          (fun l ->
            if not (Hashtbl.mem seen_v l) then
              fail "loop L%d cont uses unplaced value v%d" lp.lid l)
          (Pred.literals lp.cont))

let verify_or_message f =
  match verify f with
  | () -> None
  | exception Invalid msg -> Some msg
