(* Global value numbering for PSSA, including the *static* form of
   redundant load elimination (a later load of the same address with no
   intervening may-write reuses the earlier value).  This is the baseline
   the paper's versioning-based RLE is compared against, and it also
   serves as the "extra instructions deleted by GVN" downstream pass of
   Fig. 22.

   Scoping: program order is dominance for sibling items, but values
   defined inside a loop body do not dominate code after the loop, so
   the value table is scoped per region. *)

open Fgv_pssa

(* Canonical key for a pure instruction: kind with operands rewritten to
   their representatives, commutative operands sorted. *)
let key_of f repr v : string option =
  let i = Ir.inst f v in
  let r x = try Hashtbl.find repr x with Not_found -> x in
  let commutative = function
    | Ir.Add | Ir.Mul | Ir.Fadd | Ir.Fmul | Ir.Band | Ir.Bor -> true
    | _ -> false
  in
  match i.kind with
  | Ir.Const c ->
    (* the key must distinguish Cint 1 from Cfloat 1.0: use an exact
       hexadecimal rendering for floats and tag with the type *)
    let body =
      match c with
      | Ir.Cfloat x -> Printf.sprintf "f%h" x
      | Ir.Cint n -> Printf.sprintf "i%d" n
      | Ir.Cbool b -> Printf.sprintf "b%b" b
      | Ir.Cundef _ -> "undef"
    in
    Some (Printf.sprintf "const:%s:%s" (Ir.string_of_ty i.ty) body)
  | Ir.Binop (op, a, b) ->
    let a = r a and b = r b in
    let a, b = if commutative op && b < a then (b, a) else (a, b) in
    Some (Printf.sprintf "bin:%s:%d:%d" (Ir.string_of_binop op) a b)
  | Ir.Cmp (op, a, b) ->
    Some (Printf.sprintf "cmp:%s:%d:%d" (Ir.string_of_cmpop op) (r a) (r b))
  | Ir.Cast (t, a) -> Some (Printf.sprintf "cast:%s:%d" (Ir.string_of_ty t) (r a))
  | Ir.Select { cond; if_true; if_false } ->
    Some (Printf.sprintf "sel:%d:%d:%d" (r cond) (r if_true) (r if_false))
  | Ir.Splat a -> Some (Printf.sprintf "splat:%d:%s" (r a) (Ir.string_of_ty i.ty))
  | Ir.Extract (a, k) -> Some (Printf.sprintf "ext:%d:%d" (r a) k)
  | _ -> None

type entry = { e_value : Ir.value_id; e_pred : Pred.t }

let run (f : Ir.func) : int =
  let deleted = ref 0 in
  let repr : (Ir.value_id, Ir.value_id) Hashtbl.t = Hashtbl.create 64 in
  (* memory generation: bumped by every may-write *)
  let memgen = ref 0 in
  let rec walk_items table load_table items =
    List.iter
      (fun item ->
        match item with
        | Ir.I v -> visit table load_table v
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          (* a loop body runs many times: give it scoped tables, and bump
             the memory generation if it may write *)
          let writes =
            List.exists
              (fun m -> Ir.may_write_inst (Ir.inst f m))
              (Ir.memory_insts f (Ir.L lid))
          in
          if writes then incr memgen;
          walk_items (Hashtbl.copy table) (Hashtbl.copy load_table) lp.body;
          if writes then incr memgen)
      items
  and visit table load_table v =
    let i = Ir.inst f v in
    if Ir.may_write_inst i then incr memgen;
    match i.kind with
    | Ir.Load { addr } when not (Ir.may_write_inst i) ->
      let r x = try Hashtbl.find repr x with Not_found -> x in
      let key = Printf.sprintf "load:%d:%s:%d" (r addr) (Ir.string_of_ty i.ty) !memgen in
      lookup_or_add load_table key v i.ipred
    | _ -> (
      match key_of f repr v with
      | None -> ()
      | Some key -> lookup_or_add table key v i.ipred)
  and lookup_or_add table key v pred =
    let entries = Option.value ~default:[] (Hashtbl.find_opt table key) in
    match
      List.find_opt (fun e -> Pred.implies pred e.e_pred) entries
    with
    | Some e ->
      Hashtbl.replace repr v e.e_value;
      incr deleted
    | None ->
      Hashtbl.replace table key ({ e_value = v; e_pred = pred } :: entries)
  in
  walk_items (Hashtbl.create 64) (Hashtbl.create 64) f.Ir.fbody;
  (* [repr] is flat by construction — a representative is a table entry
     and a table entry is never later redirected — so one batched walk
     applies every replacement (a whole-arena walk per value made GVN
     quadratic in the function size) *)
  Ir.replace_uses_map f repr;
  !deleted
