(* Dead code elimination for PSSA.

   An instruction is dead when it has no side effects and no users; a
   loop is dead when nothing it defines is used outside it and its body
   has no side effects.  Runs to a fixpoint. *)

open Fgv_pssa

let has_side_effect f v =
  let i = Ir.inst f v in
  match i.kind with
  | Ir.Store _ -> true
  | Ir.Call { effect = Ir.Impure; _ } -> true
  | Ir.Call { effect = Ir.Readonly; _ } -> false
  | _ -> false

(* One sweep; returns the number of items removed. *)
let sweep (f : Ir.func) : int =
  let users = Ir.compute_users f in
  (* values read by loop guards / continue predicates count as uses *)
  let pred_uses = Hashtbl.create 16 in
  Ir.iter_loops f (fun lp ->
      List.iter
        (fun v -> Hashtbl.replace pred_uses v ())
        (Pred.literals lp.Ir.lpred @ Pred.literals lp.Ir.cont));
  let used v = users v <> [] || Hashtbl.mem pred_uses v in
  let removed = ref 0 in
  let rec live_loop lid =
    let lp = Ir.loop f lid in
    let defs = Ir.defined_values f (Ir.L lid) in
    let inside = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace inside v ()) defs;
    let escapes =
      (* defined values used by instructions outside the loop: etas *)
      List.exists
        (fun v -> List.exists (fun u -> not (Hashtbl.mem inside u)) (users v))
        defs
    in
    escapes
    || List.exists
         (fun item ->
           match item with
           | Ir.I v -> has_side_effect f v
           | Ir.L l -> live_loop l)
         lp.body
  in
  let rec clean items =
    List.filter_map
      (fun item ->
        match item with
        | Ir.I v ->
          if has_side_effect f v || used v then Some item
          else begin
            Ir.remove_inst f v;
            incr removed;
            None
          end
        | Ir.L lid ->
          if live_loop lid then begin
            let lp = Ir.loop f lid in
            lp.body <- clean lp.body;
            Some item
          end
          else begin
            List.iter (Ir.remove_inst f) (Ir.defined_values f item);
            Ir.remove_loop f lid;
            incr removed;
            None
          end)
      items
  in
  f.Ir.fbody <- clean f.Ir.fbody;
  !removed

let run (f : Ir.func) : int =
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let n = sweep f in
    total := !total + n;
    continue_ := n > 0
  done;
  !total
