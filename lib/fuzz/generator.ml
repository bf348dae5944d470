(* Seeded, size-parameterized structured program generator for the
   differential-fuzzing subsystem.

   Programs are mini-C kernels over 2-4 possibly-aliasing pointer
   parameters (float arrays, optionally one int array) plus an [int n]
   trip-count parameter.  The grammar is deliberately richer than the
   hand-written suites: nested counted loops (so secondary / nested
   versioning plans fire), guarded and unconditional stores, scalar
   declarations and loop-carried reassignments, conditionals with else
   branches, impure and read-only opaque calls, ternaries, casts, and
   [restrict]-qualified variants.

   Two invariants make the output useful for differential testing:

   - Determinism: the whole program is a pure function of [(config,
     seed)].  A failure report only needs the seed to reproduce.
   - In-bounds by construction: every index expression is a sum of
     in-scope induction variables and a small constant offset whose
     static maximum stays below {!span}, and the binding layouts bound
     every pointer at least [span] cells from the end of its heap
     region.  Generated programs therefore essentially never trap, so
     oracle runs compare real memory states instead of trap classes.

   The generator is also the home of the *binding* generator: the
   memory layouts (disjoint / identical / partially overlapping bases)
   under which the oracle evaluates each program. *)

open Fgv_frontend
open Fgv_pssa

type config = {
  size : int;  (** statement budget for the whole program *)
  n_ptrs : int;  (** pointer parameters, 2..4 *)
  int_arrays : bool;  (** make the last pointer an [int*] *)
  restrict_ptrs : bool;  (** qualify the pointers [restrict] *)
  max_loop_depth : int;  (** loop nesting allowed (>= 2 nests plans) *)
  allow_calls : bool;  (** impure/readonly opaque calls *)
}

let default_config =
  {
    size = 14;
    n_ptrs = 3;
    int_arrays = false;
    restrict_ptrs = false;
    max_loop_depth = 2;
    allow_calls = true;
  }

(* The big-region shape of the compile-time lane's programs and the
   corpus golden's: [size] statements, loops nested three deep, so at
   [size] 240 a top-level region holds hundreds of nodes. *)
let big_region_config size = { default_config with size; max_loop_depth = 3 }

(* ------------------------------------------------------------ geometry *)

(* Each pointer's accesses stay within [base, base+span).  Float
   pointers are bound inside [0, float_region); an int pointer inside
   [float_region, heap_cells). *)
let span = 16
let float_region = 64
let heap_cells = 96
let trip_n = 8 (* value of the [n] parameter *)

(* Initial heap: deterministic float pattern in the float region, small
   ints in the int region (so int-array loads type-check at runtime). *)
let fresh_mem (_ : config) : Value.t array =
  Array.init heap_cells (fun i ->
      if i < float_region then
        Value.VFloat (Float.of_int ((i * 11 mod 13) - 6) *. 0.5)
      else Value.VInt ((i * 7 mod 11) - 5))

(* Derive the per-seed configuration the campaign driver uses: pointer
   count, int-array presence and restrict qualification all vary, but
   only as a function of the seed, so one seed reproduces one program. *)
let vary (c : config) ~seed =
  {
    c with
    n_ptrs = 2 + (seed mod 3);
    int_arrays = seed mod 5 = 1;
    restrict_ptrs = seed mod 4 = 3;
  }

let param_names (c : config) =
  List.init c.n_ptrs (fun i -> Printf.sprintf "p%d" i)

let ptr_elem (c : config) i =
  if c.int_arrays && i = c.n_ptrs - 1 then Ast.Tint else Ast.Tfloat

let params (c : config) : Ast.param list =
  List.mapi
    (fun i name ->
      {
        Ast.pname = name;
        pty = Ast.Tptr (ptr_elem c i);
        prestrict = c.restrict_ptrs;
      })
    (param_names c)
  @ [ { Ast.pname = "n"; pty = Ast.Tint; prestrict = false } ]

(* ------------------------------------------------------------ bindings *)

(* Base addresses per pointer.  Float pointers get every aliasing
   relationship the versioning checks must distinguish; a trailing int
   pointer lives in its own region (mixing it into the float region
   would only produce type traps, not interesting aliasing). *)
let layouts (c : config) : int list list =
  let k = if c.int_arrays then c.n_ptrs - 1 else c.n_ptrs in
  let float_layouts =
    [
      List.init k (fun i -> i * span); (* disjoint *)
      List.init k (fun _ -> 0); (* identical *)
      List.init k (fun i -> i * (span / 2)); (* chained half-overlap *)
      List.init k (fun i -> (k - 1 - i) * span); (* disjoint, reversed *)
      List.init k (fun i -> if i < 2 then 0 else i * span);
      (* first two identical *)
      List.init k (fun i -> i * 5); (* tight overlap *)
    ]
  in
  let with_int l = if c.int_arrays then l @ [ float_region ] else l in
  List.sort_uniq compare (List.map with_int float_layouts)

(* Restrict-qualified pointers must not overlap: binding them to
   overlapping regions is undefined behaviour, not a miscompile. *)
let disjoint_layouts (c : config) : int list list =
  let k = if c.int_arrays then c.n_ptrs - 1 else c.n_ptrs in
  let with_int l = if c.int_arrays then l @ [ float_region ] else l in
  List.sort_uniq compare
    [
      with_int (List.init k (fun i -> i * span));
      with_int (List.init k (fun i -> (k - 1 - i) * span));
    ]

let layouts_for (c : config) =
  if c.restrict_ptrs then disjoint_layouts c else layouts c

let args_for (_ : config) (layout : int list) : Value.t list =
  List.map (fun b -> Value.VInt b) layout @ [ Value.VInt trip_n ]

(* ---------------------------------------------------------- generation *)

type scope = {
  mutable fresh : int;
  mutable floats : string list;  (** float scalars in scope *)
  mutable ints : string list;  (** int scalars in scope (non-induction) *)
  mutable ivs : (string * int) list;  (** induction vars, static max *)
  mutable budget : int;  (** statements left to emit *)
  mutable loops : int;  (** loops emitted so far *)
}

let rint st n = if n <= 0 then 0 else Random.State.int st n
let pick st xs = List.nth xs (rint st (List.length xs))
let chance st p = Random.State.float st 1.0 < p

(* A bounded index expression: induction variables plus a constant
   offset, with static maximum < span. *)
let gen_index st (sc : scope) : Ast.expr =
  let rec add_ivs acc bound ivs =
    match ivs with
    | [] -> (acc, bound)
    | (iv, mx) :: rest ->
      if bound + mx < span - 1 && chance st 0.5 then
        add_ivs (Ast.Ebin ("+", acc, Ast.Evar iv)) (bound + mx) rest
      else (acc, bound)
  in
  let ivs =
    (* consider innermost first: shuffle cheaply by rotating *)
    match sc.ivs with
    | [] -> []
    | x :: rest -> if chance st 0.3 then rest @ [ x ] else x :: rest
  in
  let base, bound =
    match ivs with
    | (iv, mx) :: rest when chance st 0.8 ->
      add_ivs (Ast.Evar iv) mx rest
    | _ -> (Ast.Eint 0, 0)
  in
  let off = rint st (span - bound) in
  if off = 0 then base
  else
    match base with
    | Ast.Eint 0 -> Ast.Eint off
    | b -> Ast.Ebin ("+", b, Ast.Eint off)

let float_lit st =
  Ast.Efloat (Float.of_int (rint st 25 - 8) *. 0.25)

let float_ptrs c =
  List.filteri (fun i _ -> ptr_elem c i = Ast.Tfloat) (param_names c)

let int_ptrs c =
  List.filteri (fun i _ -> ptr_elem c i = Ast.Tint) (param_names c)

(* Integer-typed expression (a value, not an address). *)
let rec gen_iexpr st c sc depth : Ast.expr =
  if depth <= 0 then
    match
      List.concat
        [
          [ `Const; `Const ];
          (if sc.ints <> [] then [ `Var ] else []);
          (if sc.ivs <> [] then [ `Iv ] else []);
          (if int_ptrs c <> [] then [ `Load ] else []);
        ]
      |> pick st
    with
    | `Const -> Ast.Eint (rint st 9 - 2)
    | `Var -> Ast.Evar (pick st sc.ints)
    | `Iv -> Ast.Evar (fst (pick st sc.ivs))
    | `Load -> Ast.Eindex (pick st (int_ptrs c), gen_index st sc)
  else
    match rint st 4 with
    | 0 | 1 ->
      Ast.Ebin
        ( pick st [ "+"; "-"; "*" ],
          gen_iexpr st c sc (depth - 1),
          gen_iexpr st c sc (depth - 1) )
    | 2 ->
      Ast.Eternary
        ( gen_bexpr st c sc (depth - 1),
          gen_iexpr st c sc (depth - 1),
          gen_iexpr st c sc (depth - 1) )
    | _ -> gen_iexpr st c sc 0

(* Float-typed expression. *)
and gen_fexpr st c sc depth : Ast.expr =
  if depth <= 0 then
    match
      List.concat
        [
          [ `Const ];
          (if sc.floats <> [] then [ `Var; `Var ] else []);
          (if float_ptrs c <> [] then [ `Load; `Load ] else []);
        ]
      |> pick st
    with
    | `Const -> float_lit st
    | `Var -> Ast.Evar (pick st sc.floats)
    | `Load -> Ast.Eindex (pick st (float_ptrs c), gen_index st sc)
  else
    match rint st 8 with
    | 0 | 1 | 2 ->
      Ast.Ebin
        ( pick st [ "+"; "-"; "*"; "*"; "/" ],
          gen_fexpr st c sc (depth - 1),
          gen_fexpr st c sc (depth - 1) )
    | 3 ->
      Ast.Eternary
        ( gen_bexpr st c sc (depth - 1),
          gen_fexpr st c sc (depth - 1),
          gen_fexpr st c sc (depth - 1) )
    | 4 -> Ast.Ecast (Ast.Tfloat, gen_iexpr st c sc (depth - 1))
    | 5 when chance st 0.5 ->
      Ast.Ecall (pick st [ "fabs"; "sqrt" ], [ gen_fexpr st c sc (depth - 1) ])
    | _ -> gen_fexpr st c sc 0

and gen_bexpr st c sc depth : Ast.expr =
  let cmp =
    if chance st 0.7 || float_ptrs c = [] then
      Ast.Ebin
        ( pick st [ "<"; ">"; "<=" ],
          gen_fexpr st c sc (max 0 (depth - 1)),
          float_lit st )
    else
      Ast.Ebin
        (pick st [ "<"; ">"; "==" ], gen_iexpr st c sc 0, Ast.Eint (rint st 5))
  in
  if depth > 1 && chance st 0.2 then
    Ast.Ebin (pick st [ "&&"; "||" ], cmp, gen_bexpr st c sc (depth - 1))
  else cmp

let gen_store st c sc : Ast.stmt =
  let ptrs = param_names c in
  let i = rint st (List.length ptrs) in
  let p = List.nth ptrs i in
  let value =
    match ptr_elem c i with
    | Ast.Tint -> gen_iexpr st c sc (1 + rint st 2)
    | _ -> gen_fexpr st c sc (1 + rint st 2)
  in
  Ast.Sstore (p, gen_index st sc, value)

let gen_decl st c sc : Ast.stmt =
  let name = Printf.sprintf "x%d" sc.fresh in
  sc.fresh <- sc.fresh + 1;
  if chance st 0.75 || int_ptrs c = [] then begin
    let s = Ast.Sdecl (Ast.Tfloat, name, gen_fexpr st c sc 2) in
    sc.floats <- name :: sc.floats;
    s
  end
  else begin
    let s = Ast.Sdecl (Ast.Tint, name, gen_iexpr st c sc 2) in
    sc.ints <- name :: sc.ints;
    s
  end

let gen_assign st c sc : Ast.stmt option =
  match (sc.floats, sc.ints) with
  | [], [] -> None
  | fs, is ->
    if fs <> [] && (is = [] || chance st 0.7) then
      Some (Ast.Sassign (pick st fs, gen_fexpr st c sc 2))
    else Some (Ast.Sassign (pick st is, gen_iexpr st c sc 2))

let gen_call st c sc : Ast.stmt =
  if not c.allow_calls then gen_store st c sc
  else
    match rint st 3 with
    | 0 -> Ast.Sexpr (Ast.Ecall ("cold_func", []))
    | 1 -> Ast.Sexpr (Ast.Ecall ("opaque_touch", [ Ast.Eint (rint st span) ]))
    | _ ->
      (* guarded rare call: the paper's running-example shape *)
      Ast.Sif
        ( gen_bexpr st c sc 1,
          [ Ast.Sexpr (Ast.Ecall ("cold_func", [])) ],
          [] )

(* Same-address store pair with an optional interleaved may-alias
   access: the DSE client's hot path.  The first store is killable when
   the accesses in between are versioned away; a load of the same cell
   in between is a forwardable load. *)
let gen_dse_pair st c sc : Ast.stmt list =
  sc.budget <- sc.budget - 2;
  let ptrs = param_names c in
  let i = rint st (List.length ptrs) in
  let p = List.nth ptrs i in
  let idx = gen_index st sc in
  let elem = ptr_elem c i in
  let gen_val depth =
    match elem with
    | Ast.Tint -> gen_iexpr st c sc depth
    | _ -> gen_fexpr st c sc depth
  in
  let first = Ast.Sstore (p, idx, gen_val 1) in
  let middle =
    match rint st 4 with
    | 0 -> []
    | 1 -> [ gen_store st c sc ] (* may-alias writer *)
    | 2 ->
      (* read the just-stored cell: a forwardable load *)
      let name = Printf.sprintf "x%d" sc.fresh in
      sc.fresh <- sc.fresh + 1;
      let s = Ast.Sdecl (elem, name, Ast.Eindex (p, idx)) in
      (match elem with
      | Ast.Tint -> sc.ints <- name :: sc.ints
      | _ -> sc.floats <- name :: sc.floats);
      [ s ]
    | _ -> [ Ast.Sif (gen_bexpr st c sc 1, [ gen_store st c sc ], []) ]
  in
  let second =
    (* sometimes accumulate through the cell, giving the pair a flow
       dependence the forwarder must resolve before the kill can fire *)
    if chance st 0.5 then gen_val 1
    else Ast.Ebin ("+", Ast.Eindex (p, idx), gen_val 0)
  in
  (first :: middle) @ [ Ast.Sstore (p, idx, second) ]

(* Snapshot/restore lexical scope around nested blocks: declarations
   inside a branch or loop body are not visible after it. *)
let save sc = (sc.floats, sc.ints, sc.ivs)

let restore sc (f, i, v) =
  sc.floats <- f;
  sc.ints <- i;
  sc.ivs <- v

(* A distribution-shaped loop: a clean elementwise stream fused with a
   loop-carried recurrence through a possibly-aliasing pointer — the
   s222/s2251 shape the distribute client splits. *)
let gen_dist_loop st c sc : Ast.stmt =
  sc.loops <- sc.loops + 1;
  sc.budget <- sc.budget - 1;
  let iv = Printf.sprintf "i%d" sc.fresh in
  sc.fresh <- sc.fresh + 1;
  let trip = 4 + rint st 4 in
  let fps = float_ptrs c in
  let p = pick st fps in
  let q = pick st fps in
  let snap = save sc in
  sc.ivs <- (iv, trip - 1) :: sc.ivs;
  let clean = Ast.Sstore (p, Ast.Evar iv, gen_fexpr st c sc 1) in
  let recur =
    Ast.Sstore
      ( q,
        Ast.Ebin ("+", Ast.Evar iv, Ast.Eint 1),
        Ast.Ebin ("*", Ast.Eindex (q, Ast.Evar iv), float_lit st) )
  in
  let body = if chance st 0.5 then [ clean; recur ] else [ recur; clean ] in
  restore sc snap;
  Ast.Sfor
    ( Ast.Sdecl (Ast.Tint, iv, Ast.Eint 0),
      Ast.Ebin ("<", Ast.Evar iv, Ast.Eint trip),
      Ast.Sassign (iv, Ast.Ebin ("+", Ast.Evar iv, Ast.Eint 1)),
      body )

let rec gen_stmt st c sc ~loop_depth : Ast.stmt list =
  sc.budget <- sc.budget - 1;
  let want_loop =
    loop_depth < c.max_loop_depth && sc.budget > 1
    && chance st (if loop_depth = 0 then 0.35 else 0.45)
  in
  if want_loop then [ gen_loop st c sc ~loop_depth ]
  else
    match rint st 12 with
    | 0 | 1 | 2 -> [ gen_store st c sc ]
    | 3 | 4 -> [ gen_decl st c sc ]
    | 5 -> (
      match gen_assign st c sc with
      | Some s -> [ s ]
      | None -> [ gen_decl st c sc ])
    | 6 -> [ gen_call st c sc ]
    | 7 when sc.budget > 1 -> [ gen_if st c sc ~loop_depth ]
    | 8 -> gen_dse_pair st c sc
    | 9 when loop_depth < c.max_loop_depth && sc.budget > 1 ->
      [ gen_dist_loop st c sc ]
    | _ ->
      (* guarded store: conditional dependence for the framework *)
      [ Ast.Sif (gen_bexpr st c sc 1, [ gen_store st c sc ], []) ]

and gen_if st c sc ~loop_depth : Ast.stmt =
  let cond = gen_bexpr st c sc 2 in
  let snap = save sc in
  let then_ = gen_block st c sc ~loop_depth (1 + rint st 2) in
  restore sc snap;
  let else_ =
    if chance st 0.4 then begin
      let e = gen_block st c sc ~loop_depth (1 + rint st 2) in
      restore sc snap;
      e
    end
    else []
  in
  Ast.Sif (cond, then_, else_)

and gen_loop st c sc ~loop_depth : Ast.stmt =
  sc.loops <- sc.loops + 1;
  let iv = Printf.sprintf "i%d" sc.fresh in
  sc.fresh <- sc.fresh + 1;
  (* counted loop: a small constant trip count, or [n] when no other
     induction variable constrains the index budget *)
  let use_n = sc.ivs = [] && chance st 0.4 in
  let trip = if use_n then trip_n else 2 + rint st 3 in
  let bound = if use_n then Ast.Evar "n" else Ast.Eint trip in
  let snap = save sc in
  sc.ivs <- (iv, trip - 1) :: sc.ivs;
  let body_len = 1 + rint st (if loop_depth = 0 then 3 else 2) in
  let body = gen_block st c sc ~loop_depth:(loop_depth + 1) body_len in
  (* make sure loops touch memory: an empty-effect loop body tests
     nothing the straight-line code doesn't *)
  let body =
    if
      List.exists
        (function
          | Ast.Sstore _ | Ast.Sif _ | Ast.Sfor _ | Ast.Sexpr _ -> true
          | _ -> false)
        body
    then body
    else body @ [ gen_store st c sc ]
  in
  restore sc snap;
  Ast.Sfor
    ( Ast.Sdecl (Ast.Tint, iv, Ast.Eint 0),
      Ast.Ebin ("<", Ast.Evar iv, bound),
      Ast.Sassign (iv, Ast.Ebin ("+", Ast.Evar iv, Ast.Eint 1)),
      body )

and gen_block st c sc ~loop_depth n : Ast.stmt list =
  let rec go acc k =
    if k = 0 || sc.budget <= 0 then List.rev acc
    else go (List.rev_append (gen_stmt st c sc ~loop_depth) acc) (k - 1)
  in
  go [] n

let generate ?(config = default_config) ~seed () : Ast.fdecl =
  let st = Random.State.make [| seed; 0x5eed |] in
  let sc =
    { fresh = 0; floats = []; ints = []; ivs = []; budget = config.size;
      loops = 0 }
  in
  let rec top acc =
    if sc.budget <= 0 then List.rev acc
    else top (List.rev_append (gen_stmt st config sc ~loop_depth:0) acc)
  in
  let body = top [] in
  (* a program with no store has no observable memory behaviour *)
  let body =
    if
      List.exists
        (let rec has_store = function
           | Ast.Sstore _ -> true
           | Ast.Sif (_, t, e) ->
             List.exists has_store t || List.exists has_store e
           | Ast.Sfor (_, _, _, b) | Ast.Swhile (_, b) ->
             List.exists has_store b
           | _ -> false
         in
         has_store)
        body
    then body
    else body @ [ gen_store st config sc ]
  in
  { Ast.fdname = "fuzz"; fdparams = params config; fdbody = body }

(* ----------------------------------------------------------- rendering *)

(* Pretty-print back to *parseable* mini-C, so a failure report is a
   file you can hand straight to [fgvc].  Floats keep a decimal point
   (the lexer would read "2" as an int). *)
let render_float x =
  let s = Printf.sprintf "%.12g" x in
  if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'n' || ch = 'i') s
  then s
  else s ^ ".0"

let rec render_expr = function
  | Ast.Eint n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Ast.Efloat x ->
    if x < 0.0 then Printf.sprintf "(0.0 - %s)" (render_float (-.x))
    else render_float x
  | Ast.Ebool b -> string_of_bool b
  | Ast.Evar x -> x
  | Ast.Eindex (p, e) -> Printf.sprintf "%s[%s]" p (render_expr e)
  | Ast.Ebin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (render_expr a) op (render_expr b)
  | Ast.Eun (op, a) -> Printf.sprintf "%s(%s)" op (render_expr a)
  | Ast.Eternary (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (render_expr c) (render_expr a)
      (render_expr b)
  | Ast.Ecall (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map render_expr args))
  | Ast.Ecast (t, e) ->
    Printf.sprintf "(%s) (%s)" (Ast.string_of_ty t) (render_expr e)

let rec render_stmt ind s =
  let pad = String.make ind ' ' in
  match s with
  | Ast.Sdecl (t, x, e) ->
    Printf.sprintf "%s%s %s = %s;" pad (Ast.string_of_ty t) x (render_expr e)
  | Ast.Sassign (x, e) -> Printf.sprintf "%s%s = %s;" pad x (render_expr e)
  | Ast.Sstore (p, i, e) ->
    Printf.sprintf "%s%s[%s] = %s;" pad p (render_expr i) (render_expr e)
  | Ast.Sexpr e -> Printf.sprintf "%s%s;" pad (render_expr e)
  | Ast.Sif (c, t, e) ->
    Printf.sprintf "%sif (%s) {\n%s\n%s}%s" pad (render_expr c)
      (render_stmts (ind + 2) t)
      pad
      (if e = [] then ""
       else Printf.sprintf " else {\n%s\n%s}" (render_stmts (ind + 2) e) pad)
  | Ast.Sfor (init, c, step, body) ->
    Printf.sprintf "%sfor (%s; %s; %s) {\n%s\n%s}" pad
      (render_simple init) (render_expr c) (render_simple step)
      (render_stmts (ind + 2) body)
      pad
  | Ast.Swhile (c, body) ->
    Printf.sprintf "%swhile (%s) {\n%s\n%s}" pad (render_expr c)
      (render_stmts (ind + 2) body)
      pad

(* A statement without its trailing ';', as for-headers are parsed. *)
and render_simple s =
  let t = String.trim (render_stmt 0 s) in
  if String.length t > 0 && t.[String.length t - 1] = ';' then
    String.sub t 0 (String.length t - 1)
  else t

and render_stmts ind = function
  | [] -> ""
  | ss -> String.concat "\n" (List.map (render_stmt ind) ss)

let render_param (p : Ast.param) =
  match p.Ast.pty with
  | Ast.Tptr t ->
    Printf.sprintf "%s*%s %s" (Ast.string_of_ty t)
      (if p.Ast.prestrict then " restrict" else "")
      p.Ast.pname
  | t -> Printf.sprintf "%s %s" (Ast.string_of_ty t) p.Ast.pname

let render (fd : Ast.fdecl) =
  Printf.sprintf "kernel %s(%s) {\n%s\n}" fd.Ast.fdname
    (String.concat ", " (List.map render_param fd.Ast.fdparams))
    (render_stmts 2 fd.Ast.fdbody)
