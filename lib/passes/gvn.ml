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

(* Structural hash keys.  A float constant is keyed by its bits, except
   that every NaN of one sign is one key: exactly the values an exact
   hexadecimal rendering (%h) tells apart, so [-0.0] and [0.0] stay
   distinct and so do [nan] and [-nan]. *)
type const_key = Kint of int | Kfloat of int64 | Kbool of bool | Kundef

type key =
  | Kconst of Ir.ty * const_key (* the result type tells 1 from 1.0 *)
  | Kbin of Ir.binop * Ir.value_id * Ir.value_id
  | Kcmp of Ir.cmpop * Ir.value_id * Ir.value_id
  | Kcast of Ir.ty * Ir.value_id
  | Ksel of Ir.value_id * Ir.value_id * Ir.value_id
  | Ksplat of Ir.value_id * Ir.ty
  | Kext of Ir.value_id * int
  | Kload of Ir.value_id * Ir.ty * int (* address, type, memory generation *)

let float_key x =
  Kfloat
    (Int64.bits_of_float
       (if Float.is_nan x then Float.copy_sign Float.nan x else x))

(* Canonical key for a pure instruction: kind with operands rewritten to
   their representatives, commutative operands sorted. *)
let key_of f repr v : key option =
  let i = Ir.inst f v in
  let r x = try Hashtbl.find repr x with Not_found -> x in
  let commutative = function
    | Ir.Add | Ir.Mul | Ir.Fadd | Ir.Fmul | Ir.Band | Ir.Bor -> true
    | _ -> false
  in
  match i.kind with
  | Ir.Const c ->
    let body =
      match c with
      | Ir.Cfloat x -> float_key x
      | Ir.Cint n -> Kint n
      | Ir.Cbool b -> Kbool b
      | Ir.Cundef _ -> Kundef
    in
    Some (Kconst (i.ty, body))
  | Ir.Binop (op, a, b) ->
    let a = r a and b = r b in
    let a, b = if commutative op && b < a then (b, a) else (a, b) in
    Some (Kbin (op, a, b))
  | Ir.Cmp (op, a, b) -> Some (Kcmp (op, r a, r b))
  | Ir.Cast (t, a) -> Some (Kcast (t, r a))
  | Ir.Select { cond; if_true; if_false } ->
    Some (Ksel (r cond, r if_true, r if_false))
  | Ir.Splat a -> Some (Ksplat (r a, i.ty))
  | Ir.Extract (a, k) -> Some (Kext (r a, k))
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
      lookup_or_add load_table (Kload (r addr, i.ty, !memgen)) v i.ipred
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
