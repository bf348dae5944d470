(* Dead code elimination for PSSA.

   An instruction is dead when it has no side effects and no users; a
   loop is dead when nothing it defines is used outside it and its body
   has no side effects.

   The pass is defined by sweeps, repeated until one removes nothing.  A
   sweep judges every item by the function as it stood when the sweep
   began (users, and the literals of every loop guard and continue
   predicate still in the loop arena), walks the placed items from the
   top, removes a dead instruction (one count) and a dead loop with
   everything in it, nested loops included (one count for the loop, none
   for its contents), and recurses into the live loops only.

   It runs without re-sweeping (DESIGN §12, "Sixth round"): nothing DCE
   does adds a use, so each item is removed in the sweep after its last
   blocker went, and only removals change what blocks.  An instruction's
   blockers are its users and the loops whose guard or continue
   predicate reads it; a loop's are the uses that escape: a value
   defined in the loop, or in a loop nested in it, read by an
   instruction outside the innermost loop that defines it.  One walk
   counts the blockers; then the dead items are taken sweep by sweep,
   each removal releasing only its own operands, literals and escaping
   uses, and everything is removed at once at the end.  An instruction
   counts if no loop around it dies in the same sweep, a loop likewise,
   so the count is the sweeps' count. *)

open Fgv_pssa

let has_side_effect f v =
  let i = Ir.inst f v in
  match i.kind with
  | Ir.Store _ -> true
  | Ir.Call { effect = Ir.Impure; _ } -> true
  | Ir.Call { effect = Ir.Readonly; _ } -> false
  | _ -> false

let present = max_int

let run (f : Ir.func) : int =
  let nv = f.Ir.next_value and nl = f.Ir.next_loop in
  (* the placed tree: the innermost loop around each value (a mu's own
     loop) and each loop's parent, -1 at the top, -2 when not placed *)
  let vloop = Array.make nv (-2) and lparent = Array.make nl (-2) in
  let body_inst = Array.make nv false in
  (* a loop whose body, nested loops included, has a side effect *)
  let effect = Array.make nl false in
  let rec place parent items =
    List.fold_left
      (fun eff item ->
        match item with
        | Ir.I v ->
          vloop.(v) <- parent;
          body_inst.(v) <- true;
          has_side_effect f v || eff
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          lparent.(lid) <- parent;
          List.iter (fun m -> vloop.(m) <- lid) lp.mus;
          effect.(lid) <- place lid lp.body;
          effect.(lid) || eff)
      false items
  in
  ignore (place (-1) f.Ir.fbody);
  (* is [u] placed inside loop [lid]? *)
  let rec within l lid = l = lid || (l >= 0 && within lparent.(l) lid) in
  let inside u lid = within vloop.(u) lid in
  (* [v]'s use by [u] keeps alive every loop from the innermost one
     around [v] out, when [u] is not inside that one: this returns it,
     or -1 *)
  let escape v u =
    let l = vloop.(v) in
    if l >= 0 && not (inside u l) then l else -1
  in
  (* every arena instruction's operands, each once ([Ir.users_table]
     read from the users' side), kept to release them when it goes *)
  let operands = Array.make nv [] in
  let vblock = Array.make nv 0 and lblock = Array.make nl 0 in
  let rec block l =
    if l >= 0 then begin
      lblock.(l) <- lblock.(l) + 1;
      block lparent.(l)
    end
  in
  Ir.iter_insts f (fun i ->
      let u = i.Ir.id in
      operands.(u) <- Ir.all_operands i;
      List.iter
        (fun v ->
          vblock.(v) <- vblock.(v) + 1;
          block (escape v u))
        operands.(u));
  (* values read by loop guards / continue predicates count as uses,
     for every loop in the arena, placed or not *)
  let guard_lits = Array.make nl [] in
  Ir.iter_loops f (fun lp ->
      let lits =
        List.sort_uniq compare (Pred.literals lp.Ir.lpred @ Pred.literals lp.Ir.cont)
      in
      guard_lits.(lp.Ir.lid) <- lits;
      List.iter (fun v -> vblock.(v) <- vblock.(v) + 1) lits);
  (* the sweep that removed each value and loop *)
  let vgone = Array.make nv present and lgone = Array.make nl present in
  let dying = Array.make nl (-1) in
  let candidate_v v = body_inst.(v) && not (has_side_effect f v) in
  let candidate_l l = lparent.(l) >= -1 && not effect.(l) in
  let dead = ref [] in
  for v = 0 to nv - 1 do
    if candidate_v v && vblock.(v) = 0 then dead := `I v :: !dead
  done;
  for l = 0 to nl - 1 do
    if candidate_l l && lblock.(l) = 0 then dead := `L l :: !dead
  done;
  let total = ref 0 in
  let s = ref 0 in
  while !dead <> [] do
    let sweep = !s and now = !dead in
    (* a dead item inside a loop that dies in this sweep goes with it *)
    List.iter (function `L l -> dying.(l) <- sweep | `I _ -> ()) now;
    let rec under_dying l =
      l >= 0 && (dying.(l) = sweep || under_dying lparent.(l))
    in
    (* bodies still hold what earlier sweeps removed: take each item
       once *)
    let gone_v = ref [] and gone_l = ref [] in
    let take_v v =
      if vgone.(v) = present then begin
        vgone.(v) <- sweep;
        gone_v := v :: !gone_v
      end
    in
    let rec take_l lid =
      if lgone.(lid) = present then begin
        let lp = Ir.loop f lid in
        lgone.(lid) <- sweep;
        gone_l := lid :: !gone_l;
        List.iter take_v lp.mus;
        List.iter (function Ir.I v -> take_v v | Ir.L l -> take_l l) lp.body
      end
    in
    List.iter
      (function
        | `I v ->
          if not (under_dying vloop.(v)) then begin
            incr total;
            take_v v
          end
        | `L l ->
          if not (under_dying lparent.(l)) then begin
            incr total;
            take_l l
          end)
      now;
    (* release what the removed items blocked; what nothing blocks any
       more dies in the next sweep *)
    let next = ref [] in
    let release_v v =
      if vgone.(v) = present then begin
        vblock.(v) <- vblock.(v) - 1;
        if vblock.(v) = 0 && candidate_v v then next := `I v :: !next
      end
    in
    let rec release_l l =
      if l >= 0 then begin
        if lgone.(l) = present then begin
          lblock.(l) <- lblock.(l) - 1;
          if lblock.(l) = 0 && candidate_l l then next := `L l :: !next
        end;
        release_l lparent.(l)
      end
    in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            release_v v;
            release_l (escape v u))
          operands.(u))
      !gone_v;
    List.iter (fun l -> List.iter release_v guard_lits.(l)) !gone_l;
    dead := !next;
    incr s
  done;
  if !total > 0 then begin
    for v = 0 to nv - 1 do
      if vgone.(v) <> present then Ir.remove_inst f v
    done;
    for l = 0 to nl - 1 do
      if lgone.(l) <> present then Ir.remove_loop f l
    done;
    let rec clean items =
      List.filter
        (function
          | Ir.I v -> vgone.(v) = present
          | Ir.L lid ->
            lgone.(lid) = present
            &&
            let lp = Ir.loop f lid in
            lp.body <- clean lp.body;
            true)
        items
    in
    f.Ir.fbody <- clean f.Ir.fbody
  end;
  !total
