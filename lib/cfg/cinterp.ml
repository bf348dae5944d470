(* Interpreter for the CFG IR with dynamic counters.

   This is where the paper-style performance counters come from: executed
   branches (conditional branches taken or not), dynamically executed
   loads/stores, and total instructions. *)

open Fgv_pssa
module C = Cir

type counters = {
  mutable insts : int;
  mutable branches : int; (* conditional branches executed *)
  mutable loads : int;
  mutable vector_loads : int;
  mutable stores : int;
  mutable vector_stores : int;
  mutable calls : int;
}

let new_counters () =
  {
    insts = 0;
    branches = 0;
    loads = 0;
    vector_loads = 0;
    stores = 0;
    vector_stores = 0;
    calls = 0;
  }

type outcome = {
  memory : Value.t array;
  call_trace : (string * Value.t list) list;
  counters : counters;
}

let run ?(fuel = 100_000_000) ?(ffi = Interp.default_ffi) (p : C.prog)
    ~(args : Value.t list) ~(mem : Value.t array) : outcome =
  let env : (C.cvalue, Value.t) Hashtbl.t = Hashtbl.create 256 in
  let counters = new_counters () in
  let trace = ref [] in
  let fuel_left = ref fuel in
  let lookup v = Option.value ~default:Value.VUndef (Hashtbl.find_opt env v) in
  let check_addr a =
    if a < 0 || a >= Array.length mem then
      Value.trap "out-of-bounds access at %d" a
  in
  let exec_inst prev_block (i : C.cinst) : Value.t =
    decr fuel_left;
    if !fuel_left <= 0 then raise Value.Out_of_fuel;
    counters.insts <- counters.insts + 1;
    match i.ck with
    | KConst (Cint n) -> VInt n
    | KConst (Cfloat x) -> VFloat x
    | KConst (Cbool b) -> VBool b
    | KConst (Cundef _) -> VUndef
    | KArg n -> (
      match List.nth_opt args n with
      | Some v -> v
      | None -> Value.trap "missing argument %d" n)
    | KBinop (op, a, b) ->
      Interp.lanewise2 (Interp.apply_binop op) (lookup a) (lookup b)
    | KCmp (op, a, b) ->
      Interp.lanewise2 (Interp.apply_cmp op) (lookup a) (lookup b)
    | KCast (t, a) ->
      let rec cast1 v =
        if Value.is_undef v then Value.VUndef
        else
          match v, t with
          | Value.VVec xs, _ -> Value.VVec (Array.map cast1 xs)
          | _, (Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _)) ->
            VFloat (Intsem.to_float (Value.to_int v))
          | _, (Ir.Tint | Ir.Tvec (Ir.Tint, _)) ->
            VInt (Intsem.of_float (Value.to_float v))
          | _, (Ir.Tbool | Ir.Tvec (Ir.Tbool, _)) -> VBool (Value.to_bool v)
          | _ -> Value.trap "unsupported cast"
      in
      cast1 (lookup a)
    | KNot a -> VBool (not (Value.to_bool (lookup a)))
    | KSelect (c, a, b) -> (
      match lookup c with
      | VVec lanes ->
        let tv = lookup a and fv = lookup b in
        let pick src k = match src with Value.VVec xs -> xs.(k) | s -> s in
        VVec
          (Array.mapi
             (fun k v -> if Value.to_bool v then pick tv k else pick fv k)
             lanes)
      | cv -> if Value.to_bool cv then lookup a else lookup b)
    | KPhi ops -> (
      match List.assoc_opt prev_block ops with
      | Some v -> lookup v
      | None -> Value.trap "phi: no incoming for predecessor b%d" prev_block)
    | KLoad a -> (
      let av = lookup a in
      if Value.is_undef av then Value.undef_access "load";
      let addr = Value.to_int av in
      match i.cty with
      | Ir.Tvec (_, n) ->
        counters.vector_loads <- counters.vector_loads + 1;
        check_addr addr;
        check_addr (addr + n - 1);
        VVec (Array.init n (fun k -> mem.(addr + k)))
      | _ ->
        counters.loads <- counters.loads + 1;
        check_addr addr;
        mem.(addr))
    | KStore (a, x) -> (
      let av = lookup a in
      if Value.is_undef av then Value.undef_access "store";
      let addr = Value.to_int av in
      match lookup x with
      | VVec lanes ->
        counters.vector_stores <- counters.vector_stores + 1;
        check_addr addr;
        check_addr (addr + Array.length lanes - 1);
        Array.iteri (fun k v -> mem.(addr + k) <- v) lanes;
        VUndef
      | v ->
        counters.stores <- counters.stores + 1;
        check_addr addr;
        mem.(addr) <- v;
        VUndef)
    | KCall (callee, cargs, effect) -> (
      counters.calls <- counters.calls + 1;
      let argv = List.map lookup cargs in
      if effect = Ir.Impure then trace := (callee, argv) :: !trace;
      match List.assoc_opt callee ffi with
      | Some fn -> fn argv mem
      | None -> Value.trap "unknown external function %s" callee)
    | KSplat a -> (
      match i.cty with
      | Ir.Tvec (_, n) -> VVec (Array.make n (lookup a))
      | _ -> Value.trap "splat with non-vector type")
    | KVecbuild vs -> VVec (Array.of_list (List.map lookup vs))
    | KExtract (a, k) -> (
      match lookup a with
      | VVec xs when k < Array.length xs -> xs.(k)
      | VUndef -> VUndef
      | _ -> Value.trap "bad extract")
  in
  let prev = ref (-1) and cur = ref p.entry and running = ref true in
  while !running do
    let b = C.block p !cur in
    (* a block's phis read the values on entry, all at once: a
       loop-header phi whose latch value is another header phi gets that
       phi's value from the previous iteration, not the one just
       assigned *)
    List.filter_map
      (fun i ->
        match i.C.ck with
        | KPhi _ -> Some (i.C.cid, exec_inst !prev i)
        | _ -> None)
      b.insts
    |> List.iter (fun (cid, v) -> Hashtbl.replace env cid v);
    List.iter
      (fun i ->
        match i.C.ck with
        | KPhi _ -> ()
        | _ -> Hashtbl.replace env i.C.cid (exec_inst !prev i))
      b.insts;
    match b.term with
    | Br next ->
      prev := !cur;
      cur := next
    | CondBr (c, t, e) ->
      counters.branches <- counters.branches + 1;
      prev := !cur;
      cur := if Value.to_bool (lookup c) then t else e
    | Ret -> running := false
  done;
  { memory = mem; call_trace = List.rev !trace; counters }

(* The run's observation for the differential contract ({!Interp}). *)
let observe (o : outcome) : Interp.observation =
  { o_mem = o.memory; o_trace = o.call_trace }
