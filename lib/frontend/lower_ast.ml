(* Lowering from the mini-C AST to predicated SSA.

   SSA construction is the classic structured-control-flow scheme:
   - an environment maps each variable to its current SSA value;
   - [if] lowers both branches under pushed predicates and joins the
     assigned variables with gated phis;
   - loops create a mu node per variable that is live into the loop and
     assigned inside it, and an eta node per such variable after it;
   - [for]/[while] conditions are evaluated once before the loop (the
     guard: PSSA loops are do-while) and once at the end of each
     iteration (the continue predicate). *)

open Fgv_pssa
module B = Builder
module VarMap = Map.Make (String)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type entry = { v : Ir.value_id; ety : Ast.ty }

let ir_ty : Ast.ty -> Ir.ty = function
  | Ast.Tint -> Ir.Tint
  | Ast.Tfloat -> Ir.Tfloat
  | Ast.Tbool -> Ir.Tbool
  | Ast.Tptr _ -> Ir.Tint (* addresses are cell indices *)

(* External functions known to the frontend: argument types, result type,
   effect.  Every entry has a runtime implementation in the interpreters'
   FFI tables. *)
let externs : (string * (Ast.ty list * Ast.ty * Ir.effect_kind)) list =
  [
    ("sqrt", ([ Ast.Tfloat ], Ast.Tfloat, Ir.Pure));
    ("fabs", ([ Ast.Tfloat ], Ast.Tfloat, Ir.Pure));
    ("exp", ([ Ast.Tfloat ], Ast.Tfloat, Ir.Pure));
    ("cold_func", ([], Ast.Tint, Ir.Impure));
    (* reads arbitrary memory, writes none: for RLE stress kernels *)
    ("opaque_read", ([ Ast.Tint ], Ast.Tfloat, Ir.Readonly));
    (* writes arbitrary memory: a spurious-write generator *)
    ("opaque_touch", ([ Ast.Tint ], Ast.Tint, Ir.Impure));
  ]

let find_var env x =
  match VarMap.find_opt x env with
  | Some e -> e
  | None -> fail "undefined variable %s" x

(* Convert a value to the requested scalar type, inserting casts. *)
let coerce b (v, ty) want =
  if ty = want then v
  else
    match ty, want with
    | Ast.Tint, Ast.Tfloat -> B.cast b Ir.Tfloat v
    | Ast.Tfloat, Ast.Tint -> B.cast b Ir.Tint v
    | _ -> fail "cannot convert %s to %s" (Ast.string_of_ty ty) (Ast.string_of_ty want)

(* Promote two operands to a common arithmetic type. *)
let promote b (v1, t1) (v2, t2) =
  match t1, t2 with
  | t1, t2 when t1 = t2 -> (v1, v2, t1)
  | Ast.Tint, Ast.Tfloat -> (B.cast b Ir.Tfloat v1, v2, Ast.Tfloat)
  | Ast.Tfloat, Ast.Tint -> (v1, B.cast b Ir.Tfloat v2, Ast.Tfloat)
  | _ -> fail "type mismatch: %s vs %s" (Ast.string_of_ty t1) (Ast.string_of_ty t2)

let rec lower_expr b env (e : Ast.expr) : Ir.value_id * Ast.ty =
  match e with
  | Eint n -> (B.const_int b n, Ast.Tint)
  | Efloat x -> (B.const_float b x, Ast.Tfloat)
  | Ebool v -> (B.const_bool b v, Ast.Tbool)
  | Evar x ->
    let e = find_var env x in
    (e.v, e.ety)
  | Eindex (x, idx) -> (
    let p = find_var env x in
    match p.ety with
    | Ast.Tptr elem ->
      let iv = coerce b (lower_expr b env idx) Ast.Tint in
      let addr = B.add b p.v iv in
      (B.load b addr ~ty:(ir_ty elem), elem)
    | _ -> fail "%s is not a pointer" x)
  | Ebin (op, l, r) -> lower_binop b env op l r
  | Eun ("-", e) -> (
    let v, t = lower_expr b env e in
    match t with
    | Ast.Tint ->
      let z = B.const_int b 0 in
      (B.sub b z v, Ast.Tint)
    | Ast.Tfloat ->
      let z = B.const_float b 0.0 in
      (B.fsub b z v, Ast.Tfloat)
    | _ -> fail "cannot negate %s" (Ast.string_of_ty t))
  | Eun ("!", e) ->
    let v, t = lower_expr b env e in
    if t <> Ast.Tbool then fail "'!' needs a bool";
    let fls = B.const_bool b false in
    (B.cmp b Ir.Eq v fls, Ast.Tbool)
  | Eun (op, _) -> fail "unknown unary operator %s" op
  | Eternary (c, t, e) ->
    let cv, ct = lower_expr b env c in
    if ct <> Ast.Tbool then fail "ternary condition must be bool";
    let tv, tt = lower_expr b env t in
    let ev, et = lower_expr b env e in
    let tv, ev, ty = promote b (tv, tt) (ev, et) in
    (B.select b ~cond:cv ~if_true:tv ~if_false:ev ~ty:(ir_ty ty), ty)
  | Ecall (name, args) -> (
    match List.assoc_opt name externs with
    | None -> fail "unknown function %s" name
    | Some (arg_tys, ret_ty, effect) ->
      if List.length args <> List.length arg_tys then
        fail "%s expects %d arguments" name (List.length arg_tys);
      let argv =
        List.map2 (fun a t -> coerce b (lower_expr b env a) t) args arg_tys
      in
      (B.call b name argv ~effect ~ty:(ir_ty ret_ty), ret_ty))
  | Ecast (ty, e) ->
    let v = coerce b (lower_expr b env e) ty in
    (v, ty)

and lower_binop b env op l r =
  match op with
  | "&&" | "||" ->
    let lv, lt = lower_expr b env l in
    let rv, rt = lower_expr b env r in
    if lt <> Ast.Tbool || rt <> Ast.Tbool then fail "'%s' needs bools" op;
    let bop = if op = "&&" then Ir.Band else Ir.Bor in
    (B.binop b bop lv rv ~ty:Ir.Tbool, Ast.Tbool)
  | "==" | "!=" | "<" | "<=" | ">" | ">=" ->
    let lv, lt = lower_expr b env l in
    let rv, rt = lower_expr b env r in
    let lv, rv, ty = promote b (lv, lt) (rv, rt) in
    let cop =
      match ty, op with
      | Ast.Tfloat, "==" -> Ir.Feq
      | Ast.Tfloat, "!=" -> Ir.Fne
      | Ast.Tfloat, "<" -> Ir.Flt
      | Ast.Tfloat, "<=" -> Ir.Fle
      | Ast.Tfloat, ">" -> Ir.Fgt
      | Ast.Tfloat, ">=" -> Ir.Fge
      | _, "==" -> Ir.Eq
      | _, "!=" -> Ir.Ne
      | _, "<" -> Ir.Lt
      | _, "<=" -> Ir.Le
      | _, ">" -> Ir.Gt
      | _, ">=" -> Ir.Ge
      | _ -> assert false
    in
    (B.cmp b cop lv rv, Ast.Tbool)
  | "+" | "-" | "*" | "/" | "%" ->
    let lv, lt = lower_expr b env l in
    let rv, rt = lower_expr b env r in
    let lv, rv, ty = promote b (lv, lt) (rv, rt) in
    let bop =
      match ty, op with
      | Ast.Tint, "+" -> Ir.Add
      | Ast.Tint, "-" -> Ir.Sub
      | Ast.Tint, "*" -> Ir.Mul
      | Ast.Tint, "/" -> Ir.Div
      | Ast.Tint, "%" -> Ir.Rem
      | Ast.Tfloat, "+" -> Ir.Fadd
      | Ast.Tfloat, "-" -> Ir.Fsub
      | Ast.Tfloat, "*" -> Ir.Fmul
      | Ast.Tfloat, "/" -> Ir.Fdiv
      | _ -> fail "operator %s not defined on %s" op (Ast.string_of_ty ty)
    in
    (B.binop b bop lv rv ~ty:(ir_ty ty), ty)
  | _ -> fail "unknown operator %s" op

(* --------------------------------------------------------- statements *)

let rec lower_stmts b env stmts =
  List.fold_left (fun env s -> lower_stmt b env s) env stmts

and lower_stmt b env (s : Ast.stmt) : entry VarMap.t =
  match s with
  | Sdecl (ty, x, e) ->
    let v = coerce b (lower_expr b env e) ty in
    VarMap.add x { v; ety = ty } env
  | Sassign (x, e) ->
    let old = find_var env x in
    let v = coerce b (lower_expr b env e) old.ety in
    VarMap.add x { old with v } env
  | Sstore (x, idx, e) -> (
    let p = find_var env x in
    match p.ety with
    | Ast.Tptr elem ->
      let iv = coerce b (lower_expr b env idx) Ast.Tint in
      let addr = B.add b p.v iv in
      let v = coerce b (lower_expr b env e) elem in
      ignore (B.store b ~addr ~value:v);
      env
    | _ -> fail "%s is not a pointer" x)
  | Sexpr e ->
    ignore (lower_expr b env e);
    env
  | Sif (c, then_, else_) ->
    let cv, ct = lower_expr b env c in
    if ct <> Ast.Tbool then fail "if condition must be bool";
    let cur = B.cur_pred b in
    B.push_pred b (Pred.lit cv);
    let env_t = lower_stmts b env then_ in
    B.pop_pred b;
    B.push_pred b (Pred.lit ~positive:false cv);
    let env_e = lower_stmts b env else_ in
    B.pop_pred b;
    (* join assigned variables with gated phis over the branch preds *)
    VarMap.mapi
      (fun x ent ->
        let vt = (find_var env_t x).v and ve = (find_var env_e x).v in
        if vt = ve then ent
        else
          let p_t = Pred.and_ cur (Pred.lit cv) in
          let p_e = Pred.and_ cur (Pred.lit ~positive:false cv) in
          let v =
            B.phi ~name:x b [ (p_t, vt); (p_e, ve) ] ~ty:(ir_ty ent.ety)
          in
          { ent with v })
      env
  | Sfor (init, cond, step, body) ->
    let env1 = lower_stmt b env init in
    lower_loop b env1 ~cond ~body ~step:(Some step)
  | Swhile (cond, body) -> lower_loop b env ~cond ~body ~step:None

and lower_loop b env ~cond ~body ~step =
  (* variables that need mus: assigned in the body/step and visible
     before the loop *)
  let assigned =
    Ast.assigned_vars body
    @ (match step with Some s -> Ast.assigned_of_stmt s | None -> [])
  in
  let carried =
    List.sort_uniq compare (List.filter (fun x -> VarMap.mem x env) assigned)
  in
  (* guard: evaluate the condition once before entering *)
  let c0, ct = lower_expr b env cond in
  if ct <> Ast.Tbool then fail "loop condition must be bool";
  B.push_pred b (Pred.lit c0);
  let lp = B.begin_loop b in
  (* inside the loop the predicate context restarts *)
  let mus =
    List.map
      (fun x ->
        let ent = find_var env x in
        let m = B.mu ~name:x b lp ~init:ent.v ~ty:(ir_ty ent.ety) in
        (x, m))
      carried
  in
  let env_loop =
    List.fold_left
      (fun e (x, m) -> VarMap.add x { (find_var e x) with v = m } e)
      env mus
  in
  let env_body = lower_stmts b env_loop body in
  let env_step =
    match step with Some s -> lower_stmt b env_body s | None -> env_body
  in
  (* patch mu recur operands and evaluate the continue condition *)
  List.iter (fun (x, m) -> B.set_mu_recur b m (find_var env_step x).v) mus;
  let c1, _ = lower_expr b env_step cond in
  B.finish_loop b lp ~cont:(Pred.lit c1);
  (* the guard literal only applied to the loop item itself *)
  B.pop_pred b;
  (* after the loop each carried variable reads its eta *)
  List.fold_left
    (fun e (x, m) ->
      let ent = find_var e x in
      let v = B.eta ~name:x b lp m ~ty:(ir_ty ent.ety) in
      VarMap.add x { ent with v } e)
    env mus

(* ------------------------------------------------------------- driver *)

(* The AST -> IR step alone: no fresh intern generation, no verify.
   Callers compile through {!Compile}, which adds both. *)
let lower_fdecl (fd : Ast.fdecl) : Ir.func =
  let params = List.map (fun p -> (p.Ast.pname, ir_ty p.Ast.pty)) fd.fdparams in
  let b = B.create ~name:fd.fdname ~params in
  let env =
    List.fold_left
      (fun (i, env) p ->
        let v = B.arg ~name:p.Ast.pname b i ~ty:(ir_ty p.Ast.pty) in
        (i + 1, VarMap.add p.Ast.pname { v; ety = p.Ast.pty } env))
      (0, VarMap.empty) fd.fdparams
    |> snd
  in
  ignore (lower_stmts b env fd.fdbody);
  let f = B.finish b in
  f.restrict_args <-
    List.filteri (fun i _ -> (List.nth fd.fdparams i).Ast.prestrict)
      (List.mapi (fun i _ -> i) fd.fdparams)
    |> List.map (fun i -> i);
  f
