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

(* Sweep number [s]; returns the number of items removed.  [users] is
   the users table of the function as [run] found it, and [gone.(v)] the
   sweep that removed [v] ([max_int] while it is in the arena): a user
   counts only if it was in the arena when this sweep began, as in a
   users table rebuilt now. *)
let sweep (f : Ir.func) ~users ~gone s : int =
  let present u = gone.(u) >= s in
  (* values read by loop guards / continue predicates count as uses *)
  let pred_uses = Hashtbl.create 16 in
  Ir.iter_loops f (fun lp ->
      List.iter
        (fun v -> Hashtbl.replace pred_uses v ())
        (Pred.literals lp.Ir.lpred @ Pred.literals lp.Ir.cont));
  let used v =
    List.exists present (Ir.users_in users v) || Hashtbl.mem pred_uses v
  in
  let remove v =
    Ir.remove_inst f v;
    gone.(v) <- s
  in
  let removed = ref 0 in
  let rec live_loop lid =
    let lp = Ir.loop f lid in
    let defs = Ir.defined_values f (Ir.L lid) in
    let inside = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace inside v ()) defs;
    let escapes =
      (* defined values used by instructions outside the loop: etas *)
      List.exists
        (fun v ->
          List.exists
            (fun u -> present u && not (Hashtbl.mem inside u))
            (Ir.users_in users v))
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
            remove v;
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
            List.iter remove (Ir.defined_values f item);
            Ir.remove_loop f lid;
            incr removed;
            None
          end)
      items
  in
  f.Ir.fbody <- clean f.Ir.fbody;
  !removed

(* Sweep to a fixpoint over one users table: nothing DCE does adds a use,
   so the table built once, read through the sweep stamps, decides every
   sweep as a fresh table would. *)
let run (f : Ir.func) : int =
  let users = Ir.users_table f in
  let gone = Array.make f.Ir.next_value max_int in
  let total = ref 0 in
  let s = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let n = sweep f ~users ~gone !s in
    total := !total + n;
    incr s;
    continue_ := n > 0
  done;
  !total
