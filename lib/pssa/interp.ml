(* Reference interpreter for PSSA with an architectural cost model.

   Semantics:
   - items execute in order; an instruction whose predicate evaluates to
     false is skipped and its value becomes undef;
   - a loop whose guard holds runs with do-while semantics: mus take
     their init value on the first iteration and their recur value on
     subsequent ones; after the final iteration the mus are advanced one
     more time so that etas observe the exit value (e.g. i == n after a
     counted loop);
   - undef propagates through arithmetic (LLVM-poison style) and reads as
     false in predicates; loading or storing through an undef address
     traps.

   The interpreter records an observable trace (external calls in order,
   plus the final memory).  The differential contract at the end of this
   file compares such observations between this interpreter, the CFG
   interpreter and the checked native binary. *)

open Ir

type counters = {
  mutable scalar_ops : int;
  mutable vector_ops : int;
  mutable loads : int;
  mutable vector_loads : int;
  mutable stores : int;
  mutable vector_stores : int;
  mutable calls : int;
  mutable iterations : int; (* loop iterations executed *)
  mutable skipped : int; (* predicated-off instructions *)
}

let new_counters () =
  {
    scalar_ops = 0;
    vector_ops = 0;
    loads = 0;
    vector_loads = 0;
    stores = 0;
    vector_stores = 0;
    calls = 0;
    iterations = 0;
    skipped = 0;
  }

type outcome = {
  memory : Value.t array;
  call_trace : (string * Value.t list) list; (* in execution order *)
  counters : counters;
}

(* External functions: receive argument values and the memory array
   (which impure functions may mutate); return the result value. *)
type ffi = (string * (Value.t list -> Value.t array -> Value.t)) list

let default_ffi : ffi =
  [
    ("sqrt", fun args _ -> VFloat (sqrt (Value.to_float (List.hd args))));
    ("fabs", fun args _ -> VFloat (Float.abs (Value.to_float (List.hd args))));
    ("exp", fun args _ -> VFloat (exp (Value.to_float (List.hd args))));
    (* the paper's running example: a rarely-executed opaque call that
       clobbers the first memory cell *)
    ( "cold_func",
      fun _ mem ->
        if Array.length mem > 0 then mem.(0) <- VFloat 42.0;
        VInt 0 );
    (* reads one (wrapped) cell; numeric whatever the cell holds *)
    ( "opaque_read",
      fun args mem ->
        if Array.length mem = 0 then VFloat 0.0
        else
          let i = Value.to_int (List.hd args) in
          let i = ((i mod Array.length mem) + Array.length mem) mod Array.length mem in
          (match mem.(i) with
          | VFloat x -> VFloat x
          | VInt n -> VFloat (Float.of_int n)
          | VBool b -> VFloat (if b then 1.0 else 0.0)
          | _ -> VFloat 0.0) );
    (* clobbers one (wrapped) cell: a spurious-write generator *)
    ( "opaque_touch",
      fun args mem ->
        if Array.length mem > 0 then begin
          let i = Value.to_int (List.hd args) in
          let i = ((i mod Array.length mem) + Array.length mem) mod Array.length mem in
          mem.(i) <- VFloat 7.0
        end;
        VInt 0 );
  ]

let lift_int_op op a b = Value.VInt (op (Value.to_int a) (Value.to_int b))
let lift_float_op op a b = Value.VFloat (op (Value.to_float a) (Value.to_float b))

let apply_binop op (a : Value.t) (b : Value.t) : Value.t =
  if Value.is_undef a || Value.is_undef b then VUndef
  else
    match op with
    (* integer semantics (wrap, rounding, casts) are pinned in {!Intsem}
       so the native C backend can mirror them exactly *)
    | Add -> lift_int_op Intsem.add a b
    | Sub -> lift_int_op Intsem.sub a b
    | Mul -> lift_int_op Intsem.mul a b
    | Div ->
      let d = Value.to_int b in
      if d = 0 then Value.trap "integer division by zero"
      else lift_int_op Intsem.div a b
    | Rem ->
      let d = Value.to_int b in
      if d = 0 then Value.trap "integer remainder by zero"
      else lift_int_op Intsem.rem a b
    | Fadd -> lift_float_op ( +. ) a b
    | Fsub -> lift_float_op ( -. ) a b
    | Fmul -> lift_float_op ( *. ) a b
    | Fdiv -> lift_float_op ( /. ) a b
    | Fmin -> lift_float_op Intsem.fmin a b
    | Fmax -> lift_float_op Intsem.fmax a b
    | Band -> VBool (Value.to_bool a && Value.to_bool b)
    | Bor -> VBool (Value.to_bool a || Value.to_bool b)

let apply_cmp op (a : Value.t) (b : Value.t) : Value.t =
  if Value.is_undef a || Value.is_undef b then VUndef
  else
    match op with
    | Eq -> VBool (Value.to_int a = Value.to_int b)
    | Ne -> VBool (Value.to_int a <> Value.to_int b)
    | Lt -> VBool (Value.to_int a < Value.to_int b)
    | Le -> VBool (Value.to_int a <= Value.to_int b)
    | Gt -> VBool (Value.to_int a > Value.to_int b)
    | Ge -> VBool (Value.to_int a >= Value.to_int b)
    | Feq -> VBool (Value.to_float a = Value.to_float b)
    | Fne -> VBool (Value.to_float a <> Value.to_float b)
    | Flt -> VBool (Value.to_float a < Value.to_float b)
    | Fle -> VBool (Value.to_float a <= Value.to_float b)
    | Fgt -> VBool (Value.to_float a > Value.to_float b)
    | Fge -> VBool (Value.to_float a >= Value.to_float b)

(* Apply a scalar operation lanewise when either operand is a vector. *)
let lanewise2 op a b =
  match a, b with
  | Value.VVec xs, Value.VVec ys ->
    if Array.length xs <> Array.length ys then
      Value.trap "vector width mismatch"
    else Value.VVec (Array.map2 op xs ys)
  | Value.VVec xs, y -> Value.VVec (Array.map (fun x -> op x y) xs)
  | x, Value.VVec ys -> Value.VVec (Array.map (fun y -> op x y) ys)
  | x, y -> op x y

let run ?(fuel = 100_000_000) ?(ffi = default_ffi) (f : func)
    ~(args : Value.t list) ~(mem : Value.t array) : outcome =
  let env : (value_id, Value.t) Hashtbl.t = Hashtbl.create 256 in
  let counters = new_counters () in
  let trace = ref [] in
  let fuel_left = ref fuel in
  let lookup v = Option.value ~default:Value.VUndef (Hashtbl.find_opt env v) in
  let eval_pred p = Pred.eval (fun v -> Value.to_bool (lookup v)) p in
  let burn () =
    decr fuel_left;
    if !fuel_left <= 0 then raise Value.Out_of_fuel
  in
  let check_addr a =
    if a < 0 || a >= Array.length mem then
      Value.trap "out-of-bounds access at %d (heap %d)" a (Array.length mem)
  in
  let count_op i =
    match i.ty with
    | Tvec _ -> counters.vector_ops <- counters.vector_ops + 1
    | _ -> counters.scalar_ops <- counters.scalar_ops + 1
  in
  let exec_inst (i : inst) : Value.t =
    burn ();
    match i.kind with
    | Const (Cint n) -> VInt n
    | Const (Cfloat x) -> VFloat x
    | Const (Cbool b) -> VBool b
    | Const (Cundef _) -> VUndef
    | Arg n -> (
      match List.nth_opt args n with
      | Some v -> v
      | None -> Value.trap "missing argument %d" n)
    | Binop (op, a, b) ->
      count_op i;
      lanewise2 (apply_binop op) (lookup a) (lookup b)
    | Cmp (op, a, b) ->
      count_op i;
      lanewise2 (apply_cmp op) (lookup a) (lookup b)
    | Cast (t, a) ->
      count_op i;
      let rec cast1 v =
        if Value.is_undef v then Value.VUndef
        else
          match v, t with
          | Value.VVec xs, _ -> Value.VVec (Array.map cast1 xs)
          | _, (Tfloat | Tvec (Tfloat, _)) ->
            VFloat (Intsem.to_float (Value.to_int v))
          | _, (Tint | Tvec (Tint, _)) ->
            VInt (Intsem.of_float (Value.to_float v))
          | _, (Tbool | Tvec (Tbool, _)) -> VBool (Value.to_bool v)
          | _ -> Value.trap "unsupported cast"
      in
      cast1 (lookup a)
    | Select { cond; if_true; if_false } -> (
      count_op i;
      match lookup cond with
      | VVec lanes ->
        let tv = lookup if_true and fv = lookup if_false in
        let lane k v =
          let pick src =
            match src with Value.VVec xs -> xs.(k) | s -> s
          in
          if Value.to_bool v then pick tv else pick fv
        in
        VVec (Array.mapi lane lanes)
      | c -> if Value.to_bool c then lookup if_true else lookup if_false)
    | Phi ops -> (
      match List.find_opt (fun (p, _) -> eval_pred p) ops with
      | Some (_, v) -> lookup v
      | None -> VUndef)
    | Mu _ -> Value.trap "mu executed outside loop header"
    | Eta { value; _ } -> lookup value
    | Load { addr } -> (
      let av = lookup addr in
      if Value.is_undef av then Value.undef_access "load";
      let a = Value.to_int av in
      match i.ty with
      | Tvec (_, n) ->
        counters.vector_loads <- counters.vector_loads + 1;
        check_addr a;
        check_addr (a + n - 1);
        VVec (Array.init n (fun k -> mem.(a + k)))
      | _ ->
        counters.loads <- counters.loads + 1;
        check_addr a;
        mem.(a))
    | Store { addr; value } -> (
      let av = lookup addr in
      if Value.is_undef av then Value.undef_access "store";
      let a = Value.to_int av in
      match lookup value with
      | VVec lanes ->
        counters.vector_stores <- counters.vector_stores + 1;
        check_addr a;
        check_addr (a + Array.length lanes - 1);
        Array.iteri (fun k v -> mem.(a + k) <- v) lanes;
        VUndef
      | v ->
        counters.stores <- counters.stores + 1;
        check_addr a;
        mem.(a) <- v;
        VUndef)
    | Call { callee; args = cargs; effect } -> (
      counters.calls <- counters.calls + 1;
      let argv = List.map lookup cargs in
      (* only impure calls are observable events: pure and read-only
         calls are deterministic functions the optimizer may duplicate,
         reorder, or hoist *)
      if effect = Impure then trace := (callee, argv) :: !trace;
      match List.assoc_opt callee ffi with
      | Some fn -> fn argv mem
      | None -> Value.trap "unknown external function %s" callee)
    | Splat v -> (
      count_op i;
      match i.ty with
      | Tvec (_, n) -> VVec (Array.make n (lookup v))
      | _ -> Value.trap "splat with non-vector type")
    | Vecbuild vs ->
      count_op i;
      VVec (Array.of_list (List.map lookup vs))
    | Extract (v, k) -> (
      count_op i;
      match lookup v with
      | VVec xs when k < Array.length xs -> xs.(k)
      | VVec _ -> Value.trap "extract lane out of range"
      | VUndef -> VUndef
      | _ -> Value.trap "extract from non-vector")
  in
  let rec exec_items items =
    List.iter
      (fun item ->
        match item with
        | I v ->
          let i = inst f v in
          if eval_pred i.ipred then Hashtbl.replace env v (exec_inst i)
          else begin
            counters.skipped <- counters.skipped + 1;
            Hashtbl.replace env v Value.VUndef
          end
        | L lid -> exec_loop (loop f lid))
      items
  and exec_loop lp =
    if eval_pred lp.lpred then begin
      (* first iteration: mus take their init values *)
      List.iter
        (fun m ->
          match (inst f m).kind with
          | Mu { init; _ } -> Hashtbl.replace env m (lookup init)
          | _ -> Value.trap "non-mu in loop header")
        lp.mus;
      let continue_ = ref true in
      while !continue_ do
        burn ();
        counters.iterations <- counters.iterations + 1;
        exec_items lp.body;
        (* advance mus: compute all next values, then commit *)
        let next =
          List.map
            (fun m ->
              match (inst f m).kind with
              | Mu { recur; _ } -> (m, lookup recur)
              | _ -> assert false)
            lp.mus
        in
        let cont_now = eval_pred lp.cont in
        List.iter (fun (m, v) -> Hashtbl.replace env m v) next;
        continue_ := cont_now
      done
    end
    else begin
      (* skipped loop: etas over mus observe the init values *)
      List.iter
        (fun m ->
          match (inst f m).kind with
          | Mu { init; _ } -> Hashtbl.replace env m (lookup init)
          | _ -> ())
        lp.mus;
      (* values defined in the body stay undef *)
      List.iter
        (fun v -> Hashtbl.replace env v Value.VUndef)
        (List.concat_map (defined_values f) lp.body)
    end
  in
  exec_items f.fbody;
  { memory = mem; call_trace = List.rev !trace; counters }

(* ------------------------------------------ the differential contract *)

(* One contract (DESIGN §14) for every differential check: the fuzz
   oracle, [fgvc --run-native], the bench harness's equivalence check and
   the tests all classify runs and compare them here. *)

(* What a run shows the outside world: the final memory and the impure
   calls in execution order. *)
type observation = {
  o_mem : Value.t array;
  o_trace : (string * Value.t list) list;
}

let observe (o : outcome) = { o_mem = o.memory; o_trace = o.call_trace }

(* How a run ended. *)
type run_class =
  | Finished of observation
  | Trapped of string  (** [Value.Trap] message *)
  | Undef_trap of string  (** [Value.Undef_access] operation *)
  | Exhausted  (** [Value.Out_of_fuel] *)

let classify (run : unit -> observation) : run_class =
  match run () with
  | obs -> Finished obs
  | exception Value.Undef_access op -> Undef_trap op
  | exception Value.Trap msg -> Trapped msg
  | exception Value.Out_of_fuel -> Exhausted

let class_name = function
  | Finished _ -> "finished"
  | Trapped m -> "trap: " ^ m
  | Undef_trap op -> "undef-address " ^ op
  | Exhausted -> "out of fuel"

(* [None] when two finished runs agree (equal memory cell for cell, equal
   impure-call traces); otherwise the first differing observable,
   reference first. *)
let observation_diff (a : observation) (b : observation) : string option =
  let n = Array.length a.o_mem in
  let rec first_cell i =
    if i = n then None
    else if Value.equal a.o_mem.(i) b.o_mem.(i) then first_cell (i + 1)
    else Some i
  in
  let calls t = String.concat ";" (List.map fst t) in
  if n <> Array.length b.o_mem then
    Some
      (Printf.sprintf "memory sizes differ (reference %d cells, subject %d)" n
         (Array.length b.o_mem))
  else
    match first_cell 0 with
    | Some i ->
      Some
        (Printf.sprintf "mem[%d]: reference %s, subject %s" i
           (Value.to_string a.o_mem.(i))
           (Value.to_string b.o_mem.(i)))
    | None
      when List.equal
             (fun (f, xs) (g, ys) -> f = g && List.equal Value.equal xs ys)
             a.o_trace b.o_trace ->
      None
    | None ->
      Some
        (Printf.sprintf
           "impure-call traces differ (reference %d calls: %s; subject %d \
            calls: %s)"
           (List.length a.o_trace) (calls a.o_trace) (List.length b.o_trace)
           (calls b.o_trace))

(* The agreement check: [None] when the subject behaves like the
   reference, else why not.  Observations are compared on a normal
   finish only; any two traps agree (the transformed program may fault
   exactly like the original), and undef-address traps must name the
   same operation. *)
let runs_agree (reference : run_class) (subject : run_class) : string option =
  match (reference, subject) with
  | Finished x, Finished y -> observation_diff x y
  | Trapped _, Trapped _ -> None
  | Undef_trap x, Undef_trap y ->
    if x = y then None
    else Some (Printf.sprintf "undef-address trap on %s vs %s" x y)
  | Exhausted, Exhausted -> None
  | x, y ->
    Some
      (Printf.sprintf "reference %s, subject %s" (class_name x) (class_name y))

(* The modelled machine's SIMD width: the lanes of every vector the
   vectorizers emit, and the factor they unroll by. *)
let vector_width = 4

(* Architectural cost model: what the speedup tables are computed from.
   A vector operation costs the same as a scalar one (the machine has
   [vector_width]-wide SIMD); memory operations are slightly more
   expensive; calls are expensive.  Loop iteration overhead models the
   branch/induction cost a real CPU pays per iteration. *)
let cost (c : counters) =
  float_of_int c.scalar_ops
  +. float_of_int c.vector_ops
  +. (2.0 *. float_of_int (c.loads + c.vector_loads))
  +. (2.0 *. float_of_int (c.stores + c.vector_stores))
  +. (20.0 *. float_of_int c.calls)
  +. (1.0 *. float_of_int c.iterations)
