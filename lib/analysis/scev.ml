(* Scalar-evolution-lite: decompose integer values into linear
   expressions, recognize affine induction variables (mus with constant
   strides), compute trip counts for counted loops, and promote address
   ranges out of loops (the engine behind the paper's condition
   promotion, SIV-A). *)

open Fgv_pssa

type mu_affine = {
  ma_loop : Ir.loop_id;
  ma_init : Linexp.t; (* value on the first iteration *)
  ma_stride : int; (* added on every subsequent iteration *)
}

type t = {
  func : Ir.func;
  lin_memo : (Ir.value_id, Linexp.t) Hashtbl.t;
  mu_memo : (Ir.value_id, mu_affine option) Hashtbl.t;
  trip_memo : (Ir.loop_id, Linexp.t option) Hashtbl.t;
  enclosing : Ir.loop_id list array; (* by value id, innermost first *)
  order : Ir.node -> int;
}

let create f =
  let enclosing = Array.make f.Ir.next_value [] in
  let rec walk loops items =
    List.iter
      (fun item ->
        match item with
        | Ir.I v -> enclosing.(v) <- loops
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          List.iter (fun m -> enclosing.(m) <- lid :: loops) lp.mus;
          walk (lid :: loops) lp.body)
      items
  in
  walk [] f.fbody;
  {
    func = f;
    lin_memo = Hashtbl.create 64;
    mu_memo = Hashtbl.create 16;
    trip_memo = Hashtbl.create 16;
    enclosing;
    order = Ir.compute_order f;
  }

(* Loops enclosing a value placed when [t] was made, innermost first;
   [] for top-level and later values. *)
let enclosing_loops t v = Ir.dense_get t.enclosing v ~absent:[]

(* Decompose a value into a linear expression.  Mus and anything
   non-affine stay as opaque terms. *)
let rec linexp t v : Linexp.t =
  match Hashtbl.find_opt t.lin_memo v with
  | Some e -> e
  | None ->
    let e = compute_linexp t v in
    Hashtbl.replace t.lin_memo v e;
    e

and compute_linexp t v =
  let i = Ir.inst t.func v in
  match i.kind with
  | Const (Cint n) -> Linexp.const n
  | Binop (Add, a, b) -> Linexp.add (linexp t a) (linexp t b)
  | Binop (Sub, a, b) -> Linexp.sub (linexp t a) (linexp t b)
  | Binop (Mul, a, b) ->
    let ea = linexp t a and eb = linexp t b in
    if Linexp.is_const ea then Linexp.scale (Linexp.constant ea) eb
    else if Linexp.is_const eb then Linexp.scale (Linexp.constant eb) ea
    else Linexp.of_value v
  | _ -> Linexp.of_value v

(* Is this mu an affine induction variable (recur = mu + constant)? *)
let mu_affine t m : mu_affine option =
  match Hashtbl.find_opt t.mu_memo m with
  | Some r -> r
  | None ->
    let r =
      match (Ir.inst t.func m).kind with
      | Mu { init; recur; loop } -> (
        let er = linexp t recur in
        match Linexp.terms er with
        | [ (v, 1) ] when v = m ->
          Some
            { ma_loop = loop; ma_init = linexp t init; ma_stride = Linexp.constant er }
        | _ -> None)
      | _ -> None
    in
    Hashtbl.replace t.mu_memo m r;
    r

(* A counting loop: its continue predicate is one positive literal, a
   compare whose tested side holds exactly one affine mu of the loop,
   with coefficient 1, and whose base (the tested side on iteration 0)
   and bound are defined before the loop.  Returns the compare, the mu's
   stride, the base and the bound. *)
let counting t (lp : Ir.loop) :
    (Ir.cmpop * int * Linexp.t * Linexp.t) option =
  let open Ir in
  match Pred.view lp.cont with
  | Pred.Plit { v = c; positive = true } -> (
    match (inst t.func c).kind with
    | Cmp (op, x, bound) -> (
      let ex = linexp t x and eb = linexp t bound in
      let mu_terms =
        List.filter
          (fun (v, _) ->
            match mu_affine t v with
            | Some ma -> ma.ma_loop = lp.lid
            | None -> false)
          (Linexp.terms ex)
      in
      match mu_terms with
      | [ (m, 1) ] ->
        let ma = Option.get (mu_affine t m) in
        let base = Linexp.subst m ex ma.ma_init in
        let invariant e =
          List.for_all
            (fun v -> t.order (NI v) < t.order (NL lp.lid))
            (Linexp.values e)
        in
        if invariant base && invariant eb then Some (op, ma.ma_stride, base, eb)
        else None
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Trip count of a counted loop (given that its guard held), as a linear
   expression over values defined before the loop; None when the loop is
   not recognizably counted. *)
let trip t (lp : Ir.loop) : Linexp.t option =
  match Hashtbl.find_opt t.trip_memo lp.lid with
  | Some r -> r
  | None ->
    let r =
      match counting t lp with
      (* ascending: tested value = base + k *)
      | Some (Lt, 1, base, bound) ->
        Some (Linexp.add_const 1 (Linexp.sub bound base))
      | Some (Le, 1, base, bound) ->
        Some (Linexp.add_const 2 (Linexp.sub bound base))
      (* descending: tested value = base - k *)
      | Some (Gt, -1, base, bound) ->
        Some (Linexp.add_const 1 (Linexp.sub base bound))
      | Some (Ge, -1, base, bound) ->
        Some (Linexp.add_const 2 (Linexp.sub base bound))
      | _ -> None
    in
    Hashtbl.replace t.trip_memo lp.lid r;
    r

(* ------------------------------------------------------------- ranges *)

(* A half-open address range [lo, hi) in cells. *)
type range = { lo : Linexp.t; hi : Linexp.t }

let range_of_access t v : range option =
  let i = Ir.inst t.func v in
  let width ty = Ir.lanes_of_ty ty in
  match i.kind with
  | Load { addr } ->
    let lo = linexp t addr in
    Some { lo; hi = Linexp.add_const (width i.ty) lo }
  | Store { addr; value } ->
    let lo = linexp t addr in
    let w = width (Ir.inst t.func value).ty in
    Some { lo; hi = Linexp.add_const w lo }
  | Call _ -> None (* arbitrary memory *)
  | _ -> None

(* Over-approximation of the total advance of the loop's counting mu:
   a linear expression A and the counting stride |sc| such that the mu
   tested by the continue predicate advances by at most A (in absolute
   value) over all iterations.  Any other affine mu of the loop with
   stride sm (|sm| divisible by |sc|) then spans at most A * |sm|/|sc|.
   Works for strides beyond 1 (e.g. unrolled loops counting by the
   unroll factor). *)
let loop_advance t (lp : Ir.loop) : (Linexp.t * int) option =
  match counting t lp with
  | None | Some (_, 0, _, _) -> None
  | Some (op, stride, base, bound) -> (
    (* do-while: iteration T-2 still satisfied the condition, so
       (T-1)*|sc| <= (condition slack) + |sc| *)
    match (op, stride > 0) with
    | Lt, true ->
      Some (Linexp.add_const (stride - 1) (Linexp.sub bound base), stride)
    | Le, true -> Some (Linexp.add_const stride (Linexp.sub bound base), stride)
    | Gt, false ->
      Some (Linexp.add_const (-stride - 1) (Linexp.sub base bound), -stride)
    | Ge, false ->
      Some (Linexp.add_const (-stride) (Linexp.sub base bound), -stride)
    | _ -> None)

(* All values a range's bounds mention (the "operands" of an intersection
   dependence condition). *)
let range_values r =
  List.sort_uniq compare (Linexp.values r.lo @ Linexp.values r.hi)

(* Promote a range out of the given loops: substitute each affine mu of
   those loops with its extremal values over the loop's iteration space.
   Conservative (the promoted range is a superset); fails when a mu is
   not affine or the loop's extent is unknown.  This is the paper's
   "imprecise" condition promotion. *)
let rec promote_range t ~(out_of : Ir.loop_id -> bool) (r : range) :
    range option =
  (* a value must be eliminated if it is defined inside any loop we are
     promoting out of (its runtime value varies across the iterations the
     promoted check must cover) *)
  let needs_elimination v = List.exists out_of (enclosing_loops t v) in
  let candidates = List.filter needs_elimination (range_values r) in
  match candidates with
  | [] -> Some r
  | m :: _ -> (
    match mu_affine t m with
    | None -> None (* loop-varying but not an affine induction: give up *)
    | Some ma -> (
      let lp = Ir.loop t.func ma.ma_loop in
      match loop_advance t lp with
      | None -> None
      | Some (_, sc) when ma.ma_stride mod sc <> 0 || ma.ma_stride = 0 -> None
      | Some (adv, sc) ->
        (* value of the mu ranges over [init, init + advance] (or the
           reverse for negative strides) *)
        let k = abs ma.ma_stride / sc in
        let total = Linexp.scale k adv in
        let min_e, max_e =
          if ma.ma_stride > 0 then (ma.ma_init, Linexp.add ma.ma_init total)
          else (Linexp.sub ma.ma_init total, ma.ma_init)
        in
        let subst_ext e ~toward_hi =
          match List.assoc_opt m (Linexp.terms e) with
          | None -> e
          | Some k ->
            let repl = if (k > 0) = toward_hi then max_e else min_e in
            Linexp.subst m e repl
        in
        let r' =
          {
            lo = subst_ext r.lo ~toward_hi:false;
            hi = subst_ext r.hi ~toward_hi:true;
          }
        in
        promote_range t ~out_of r'))

let range_to_string t r =
  let name = Ir.value_name t.func in
  Printf.sprintf "[%s, %s)" (Linexp.to_string name r.lo) (Linexp.to_string name r.hi)
