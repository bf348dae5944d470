(* Loop-invariant code motion for PSSA.

   An instruction is hoisted out of its loop when all of its data
   operands and predicate literals are defined before the loop; loads
   additionally require that no may-write in the loop can touch their
   address (statically disjoint, or covered by a scoped-independence
   fact established by versioning).  Hoisted instructions run under the
   loop's guard predicate.

   The pass is defined by sweeps, repeated until one hoists nothing.  A
   sweep visits the loops innermost first; at each loop it decides, for
   every instruction then directly in the body, whether every operand
   was outside the loop when the sweep began, and moves those that pass
   to just before the loop, in body order, conjoining the loop's guard
   to their predicate.  An instruction that leaves an inner loop is
   thus considered by the loop around it in the same sweep, and one
   whose operand leaves in sweep s can follow it in sweep s + 1.

   It runs as one walk instead (DESIGN §12, "Sixth round").  Legality
   per (instruction, loop) never changes from sweep to sweep: kinds do
   not, writes never move, and load safety reads ranges and the
   effective predicates (hoisting [v] out of [l] turns ctx /\ l.guard
   /\ v.pred into ctx /\ (l.guard /\ v.pred), the same hash-consed
   conjunction).  So a walk in program order, operands before users,
   finds the sweep in which the sweeps would move each instruction out
   of each loop around it: the sweep it arrives in that loop's body, or
   one past the latest sweep in which an operand still inside the loop
   leaves it, counting the literals of the predicate the instruction
   will carry there.  Then every move is applied once, in the order the
   sweeps made them: what leaves a loop stands before it ordered by
   (leave sweep, place in the body at that sweep), and the guards are
   conjoined loop by loop in the sweeps' order, so every [Pred.and_] of
   a move runs in the same sequence and interns the same predicates. *)

open Fgv_pssa
open Fgv_analysis

let never = max_int

(* The sweep after [s], [never] staying [never]. *)
let after s = if s = never then never else s + 1

(* The conjunction an instruction carries out of its loops, tracked
   without interning it: its literals, and whether [Pred.and_] folds it
   to false (a false conjunct, or a literal met with both signs), which
   leaves it no literals. *)
type carried = {
  lits : int list list; (* the literals of each conjunct predicate *)
  signed : (int * bool) list; (* the literal conjuncts met so far *)
  falsified : bool;
}

let conjoin c p =
  let conjuncts =
    match Pred.view p with Pred.Pand xs -> xs | Pred.Ptrue -> [] | _ -> [ p ]
  in
  List.fold_left
    (fun c x ->
      match Pred.view x with
      | Pred.Pfalse -> { c with falsified = true }
      | Pred.Plit { v; positive } ->
        if List.mem (v, not positive) c.signed then { c with falsified = true }
        else { c with signed = (v, positive) :: c.signed }
      | _ -> c)
    { c with lits = Pred.literals p :: c.lits }
    conjuncts

let run (f : Ir.func) : int =
  let scev = Scev.create f in
  let eff = Ir.effective_preds f in
  let scopes = Ir.indep_scope_index f in
  let nv = f.Ir.next_value and nl = f.Ir.next_loop in
  (* the loops around each placed value, innermost first (a mu's start
     with its own loop), and, in the same positions, the sweep in which
     it leaves each ([never] for what stays) *)
  let around = Array.make nv [||] and leaves = Array.make nv [||] in
  let depth = Array.make nl 0 in
  (* the sweep in which [u] leaves loop [lid], or -1 when [u] is not
     inside it *)
  let leave_of u lid =
    let c = around.(u) in
    let k = Array.length c - depth.(lid) in
    if k >= 0 && c.(k) = lid then leaves.(u).(k) else -1
  in
  (* write sets and access ranges, each computed once *)
  let range = Array.make nv None in
  let range_of v =
    match range.(v) with
    | Some r -> r
    | None ->
      let r = Scev.range_of_access scev v in
      range.(v) <- Some r;
      r
  in
  let writes = Array.make nl None in
  let writes_of lid =
    match writes.(lid) with
    | Some ws -> ws
    | None ->
      let ws =
        List.filter
          (fun m -> Ir.may_write_inst (Ir.inst f m))
          (Ir.memory_insts f (Ir.L lid))
      in
      writes.(lid) <- Some ws;
      ws
  in
  let load_safe v lid =
    match range_of v with
    | None -> false
    | Some r ->
      List.for_all
        (fun w ->
          Ir.in_indep_scope ~eff ~scopes v w
          ||
          match range_of w with
          | None -> false
          | Some rw -> Alias.relate f r rw = Alias.Disjoint)
        (writes_of lid)
  in
  let movable (i : Ir.inst) =
    (match i.kind with
    | Ir.Const _ | Ir.Arg _ | Ir.Binop _ | Ir.Cmp _ | Ir.Cast _ | Ir.Select _
    | Ir.Splat _ | Ir.Vecbuild _ | Ir.Extract _ | Ir.Load _
    | Ir.Call { effect = Ir.Pure; _ } ->
      true
    | _ -> false)
    (* division can trap; keep it guarded inside the loop unless the
       divisor is a nonzero constant *)
    &&
    match i.kind with
    | Ir.Binop ((Ir.Div | Ir.Rem), _, b) -> (
      match (Ir.inst f b).kind with Ir.Const (Ir.Cint n) -> n <> 0 | _ -> false)
    | _ -> true
  in
  (* [v]'s leave sweeps along [c]: at [c.(k)] it arrives in the sweep it
     left [c.(k - 1)], and leaves once every operand inside is out *)
  let plan v c =
    let i = Ir.inst f v in
    let out = Array.make (Array.length c) never in
    if Array.length c > 0 && movable i then begin
      let data = Ir.data_operands i.kind in
      let latest lid vs s =
        List.fold_left (fun s u -> max s (after (leave_of u lid))) s vs
      in
      let rec step k arrive carried =
        if k < Array.length c then begin
          let lid = c.(k) in
          let legal = match i.kind with Ir.Load _ -> load_safe v lid | _ -> true in
          if legal then begin
            let s = latest lid data arrive in
            let s =
              if carried.falsified then s
              else List.fold_left (fun s ls -> latest lid ls s) s carried.lits
            in
            out.(k) <- s;
            if s <> never then
              step (k + 1) s (conjoin carried (Ir.loop f lid).lpred)
          end
        end
      in
      step 0 0 (conjoin { lits = []; signed = []; falsified = false } i.ipred)
    end;
    out
  in
  let moves = ref 0 in
  let rec walk c items =
    List.iter
      (fun item ->
        match item with
        | Ir.I v ->
          around.(v) <- c;
          let out = plan v c in
          Array.iter (fun s -> if s <> never then incr moves) out;
          leaves.(v) <- out
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          let c = Array.append [| lid |] c in
          let stay = Array.make (Array.length c) never in
          depth.(lid) <- Array.length c;
          List.iter
            (fun m ->
              around.(m) <- c;
              leaves.(m) <- stay)
            lp.mus;
          walk c lp.body)
      items
  in
  walk [||] f.Ir.fbody;
  if !moves > 0 then begin
    (* Rebuild every region: before each loop stands what leaves it, by
       leave sweep and then by place in its body, and each loop keeps
       what never leaves.  [moved] collects each loop's departures in
       post-order, the order a sweep visits loops. *)
    let moved = ref [] in
    let rec region items =
      List.concat_map
        (fun item ->
          match item with
          | Ir.I _ -> [ item ]
          | Ir.L lid ->
            let lp = Ir.loop f lid in
            let sweep_of v =
              leaves.(v).(Array.length around.(v) - depth.(lid))
            in
            let stays, gone =
              List.partition_map
                (function
                  | Ir.I v when sweep_of v <> never -> Right (sweep_of v, v)
                  | it -> Left it)
                (region lp.body)
            in
            let gone =
              List.stable_sort (fun (s, _) (t, _) -> Int.compare s t) gone
            in
            lp.body <- stays;
            List.iter (fun (s, v) -> moved := (s, v, lp) :: !moved) gone;
            List.map (fun (_, v) -> Ir.I v) gone @ [ item ])
        items
    in
    f.Ir.fbody <- region f.Ir.fbody;
    (* hoisted code runs under the loop guard: conjoin sweep by sweep,
       each sweep's loops in post-order *)
    List.iter
      (fun (_, v, (lp : Ir.loop)) ->
        let i = Ir.inst f v in
        i.ipred <- Pred.and_ lp.lpred i.ipred)
      (List.stable_sort
         (fun (s, _, _) (t, _, _) -> Int.compare s t)
         (List.rev !moved))
  end;
  !moves
