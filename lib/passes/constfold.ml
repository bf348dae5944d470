(* Constant folding and algebraic simplification for PSSA.

   Folds operations over constants, simplifies identities (x+0, x*1,
   x*0), resolves selects and phis with constant conditions, and
   propagates constant booleans into execution predicates (which is what
   cleans up versioning checks that turn out to be decidable
   statically).

   Forwarding a value renames only its users, found in a users index
   built once per sweep (at its first forward), instead of walking the
   whole arena and re-interning every predicate in it. *)

open Fgv_pssa

let const_of f v =
  match (Ir.inst f v).kind with Ir.Const c -> Some c | _ -> None

let fold_binop op a b =
  let open Ir in
  match op, a, b with
  (* integer ops fold with the pinned {!Fgv_pssa.Intsem} semantics —
     the same ones the interpreters and the native backend use, so
     folding never changes observable behaviour *)
  | Add, Cint x, Cint y -> Some (Cint (Intsem.add x y))
  | Sub, Cint x, Cint y -> Some (Cint (Intsem.sub x y))
  | Mul, Cint x, Cint y -> Some (Cint (Intsem.mul x y))
  | Div, Cint x, Cint y when y <> 0 -> Some (Cint (Intsem.div x y))
  | Rem, Cint x, Cint y when y <> 0 -> Some (Cint (Intsem.rem x y))
  | Fadd, Cfloat x, Cfloat y -> Some (Cfloat (x +. y))
  | Fsub, Cfloat x, Cfloat y -> Some (Cfloat (x -. y))
  | Fmul, Cfloat x, Cfloat y -> Some (Cfloat (x *. y))
  | Fdiv, Cfloat x, Cfloat y -> Some (Cfloat (x /. y))
  | Fmin, Cfloat x, Cfloat y -> Some (Cfloat (Intsem.fmin x y))
  | Fmax, Cfloat x, Cfloat y -> Some (Cfloat (Intsem.fmax x y))
  | Band, Cbool x, Cbool y -> Some (Cbool (x && y))
  | Bor, Cbool x, Cbool y -> Some (Cbool (x || y))
  | _ -> None

let fold_cmp op a b =
  let open Ir in
  let int_cmp x y =
    match op with
    | Eq -> Some (x = y) | Ne -> Some (x <> y) | Lt -> Some (x < y)
    | Le -> Some (x <= y) | Gt -> Some (x > y) | Ge -> Some (x >= y)
    | _ -> None
  in
  let float_cmp x y =
    match op with
    | Feq -> Some (x = y) | Fne -> Some (x <> y) | Flt -> Some (x < y)
    | Fle -> Some (x <= y) | Fgt -> Some (x > y) | Fge -> Some (x >= y)
    | _ -> None
  in
  match a, b with
  | Cint x, Cint y -> Option.map (fun r -> Cbool r) (int_cmp x y)
  | Cbool x, Cbool y ->
    Option.map (fun r -> Cbool r) (int_cmp (Bool.to_int x) (Bool.to_int y))
  | Cfloat x, Cfloat y -> Option.map (fun r -> Cbool r) (float_cmp x y)
  | _ -> None

(* Algebraic identities returning an existing value. *)
let simplify_binop f op a b =
  let open Ir in
  let ca = const_of f a and cb = const_of f b in
  match op, ca, cb with
  | (Add | Sub), _, Some (Cint 0) -> Some a
  | Add, Some (Cint 0), _ -> Some b
  | Mul, _, Some (Cint 1) -> Some a
  | Mul, Some (Cint 1), _ -> Some b
  (* x + 0.0 is NOT x when x = -0.0 (-0.0 + 0.0 = +0.0); x - 0.0 is
     exact, but only for *positive* zero (the OCaml pattern 0.0 also
     matches -0.0, and x - (-0.0) = x + 0.0) *)
  | Fsub, _, Some (Cfloat z)
    when Int64.bits_of_float z = Int64.bits_of_float 0.0 ->
    Some a
  | Fmul, _, Some (Cfloat 1.0) -> Some a
  | Fmul, Some (Cfloat 1.0), _ -> Some b
  | Band, _, Some (Cbool true) -> Some a
  | Band, Some (Cbool true), _ -> Some b
  | Bor, _, Some (Cbool false) -> Some a
  | Bor, Some (Cbool false), _ -> Some b
  | _ -> None

(* Substitute constant-boolean literals inside a predicate. *)
let fold_pred f p =
  let known v =
    match const_of f v with Some (Ir.Cbool b) -> Some b | _ -> None
  in
  let rec go (p : Pred.t) : Pred.t =
    match Pred.view p with
    | Ptrue | Pfalse -> p
    | Plit { v; positive } -> (
      match known v with
      | Some b -> if b = positive then Pred.tru else Pred.fls
      | None -> p)
    | Pand ps -> Pred.and_list (List.map go ps)
    | Por ps -> Pred.or_list (List.map go ps)
  in
  go p

(* One pass over the whole function; returns number of changes.
   [replaced] records instructions whose uses were already forwarded to
   another value, so a sweep does not count them as progress again. *)
let sweep (f : Ir.func) (replaced : (Ir.value_id, unit) Hashtbl.t) : int =
  let changed = ref 0 in
  let touch () = incr changed in
  (* built at the sweep's first forward and kept a superset of the true
     users: a forward hands [v]'s users to [v'], and folding only ever
     removes operands *)
  let users = lazy (Ir.users_table f) in
  let forward v v' =
    if not (Hashtbl.mem replaced v) then begin
      Hashtbl.replace replaced v ();
      let users = Lazy.force users in
      let us = Ir.users_in users v in
      List.iter
        (fun u ->
          if u <> v' then Ir.replace_uses_in_inst f ~user:u ~old_v:v ~new_v:v')
        us;
      (* a sweep makes no values, so [v'] is inside the table *)
      users.(v') <- us @ users.(v');
      Ir.replace_uses_in_loops f ~old_v:v ~new_v:v';
      touch ()
    end
  in
  let fold_inst v =
    let i = Ir.inst f v in
    (* fold the execution predicate *)
    let p' = fold_pred f i.ipred in
    if not (Pred.equal p' i.ipred) then begin
      i.ipred <- p';
      touch ()
    end;
    match i.kind with
    | Ir.Binop (op, a, b) -> (
      match const_of f a, const_of f b with
      | Some ca, Some cb -> (
        match fold_binop op ca cb with
        | Some c ->
          i.kind <- Ir.Const c;
          touch ()
        | None -> ())
      | _ -> (
        match simplify_binop f op a b with
        | Some v' -> forward v v'
        | None -> ()))
    | Ir.Cmp (op, a, b) -> (
      match const_of f a, const_of f b with
      | Some ca, Some cb -> (
        match fold_cmp op ca cb with
        | Some c ->
          i.kind <- Ir.Const c;
          touch ()
        | None -> ())
      | _ -> ())
    | Ir.Select { cond; if_true; if_false } -> (
      match const_of f cond with
      | Some (Ir.Cbool b) -> forward v (if b then if_true else if_false)
      | _ -> ())
    | Ir.Phi ops -> (
      (* drop statically false arms; a phi with one true arm is a copy *)
      let ops' =
        List.filter_map
          (fun (p, x) ->
            let p' = fold_pred f p in
            if Pred.equal p' Pred.fls then None else Some (p', x))
          ops
      in
      if List.length ops' <> List.length ops then begin
        i.kind <- Ir.Phi ops';
        touch ()
      end;
      match ops' with
      | [ (p, x) ] when Pred.equal p Pred.tru || Pred.equal p i.ipred ->
        forward v x
      | _ -> ())
    | _ -> ()
  in
  let rec walk items =
    List.iter
      (fun item ->
        match item with
        | Ir.I v -> fold_inst v
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          let g' = fold_pred f lp.lpred in
          if not (Pred.equal g' lp.lpred) then begin
            lp.lpred <- g';
            touch ()
          end;
          let c' = fold_pred f lp.cont in
          if not (Pred.equal c' lp.cont) then begin
            lp.cont <- c';
            touch ()
          end;
          walk lp.body)
      items
  in
  walk f.Ir.fbody;
  !changed

let run (f : Ir.func) : int =
  let total = ref 0 in
  let replaced = Hashtbl.create 16 in
  let continue_ = ref true in
  while !continue_ do
    let n = sweep f replaced in
    total := !total + n;
    continue_ := n > 0
  done;
  !total
