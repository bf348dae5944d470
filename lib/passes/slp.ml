(* Superword-level parallelism vectorizer over PSSA, in the style of
   SuperVectorization [Chen et al. 2022], with the paper's two-point
   versioning integration (SV-A1):

   1. the dependence filter that would reject packs of conditionally
      dependent instructions instead asks the versioning framework for a
      plan that makes them independent (plus a plan separating the
      instructions the pack must be scheduled across);
   2. all accepted plans are materialized before vector code generation.

   Packing is bottom-up from groups of {!Interp.vector_width} stores to
   consecutive addresses; operand chains pack when isomorphic (same
   opcode, same predicate) and legal, and fall back to gathers
   (vecbuild) otherwise.
   Scalar code made dead by vectorization is left for DCE. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning

type config = {
  versioning : bool; (* fine-grained versioning for conditional deps *)
  condopt : V.Condopt.config;
}

let default_config = { versioning = true; condopt = V.Condopt.default_config }

let static_config = { default_config with versioning = false }

type pack = { members : Ir.value_id list (* lane order *) }

(* ------------------------------------------------------------ helpers *)

let inst_kind_tag f v =
  match (Ir.inst f v).kind with
  | Ir.Store _ -> `Store
  | Ir.Load _ -> `Load
  | Ir.Binop (op, _, _) -> `Binop op
  | Ir.Cmp (op, _, _) -> `Cmp op
  | Ir.Select _ -> `Select
  | Ir.Cast (t, _) -> `Cast t
  | _ -> `Other

let store_parts f v =
  match (Ir.inst f v).kind with
  | Ir.Store { addr; value } -> (addr, value)
  | _ -> invalid_arg "store_parts"

let load_addr f v =
  match (Ir.inst f v).kind with
  | Ir.Load { addr } -> addr
  | _ -> invalid_arg "load_addr"

(* Are the addresses consecutive with the given stride (in cells)?
   Returns the list re-ordered by address, or None. *)
let consecutive scev f vs ~get_addr ~width =
  let lins = List.map (fun v -> (v, Scev.linexp scev (get_addr f v))) vs in
  match lins with
  | [] -> None
  | (_, first) :: _ ->
    let offsets =
      List.map
        (fun (v, l) ->
          match Linexp.diff l first with Some d -> Some (v, d) | None -> None)
        lins
    in
    if List.exists (fun o -> o = None) offsets then None
    else begin
      let offs = List.map Option.get offsets in
      let sorted = List.sort (fun (_, a) (_, b) -> compare a b) offs in
      let rec check k = function
        | [] -> true
        | (_, d) :: rest -> d = k && check (k + width) rest
      in
      match sorted with
      | (_, d0) :: _ when check d0 sorted -> Some (List.map fst sorted)
      | _ -> None
    end

(* ----------------------------------------------------------- legality *)

type session = {
  cfg : config;
  func : Ir.func;
  region : Ir.region;
  (* forced by [find_seeds] at the region's first scalar store, before
     anything in the function changes, so regions without store seeds
     never build a SCEV *)
  scev : Scev.t Lazy.t;
  (* forced on the first legality query: regions without vectorization
     seeds never pay for the dependence graph *)
  vsession : V.Api.session Lazy.t;
  items : Ir.item list;
  (* item index of each region-level instruction ([items] is fixed
     during packing, so one table replaces a linear scan per query) *)
  item_pos : (Ir.value_id, int) Hashtbl.t;
  plans_used : int ref; (* non-trivial plans committed, over all regions *)
  mutable pending : V.Plan.t list;
  mutable accepted : (Ir.value_id list, pack) Hashtbl.t;
  mutable packed_values : (Ir.value_id, unit) Hashtbl.t;
  (* position of the last member of the pack containing each packed
     value (vector instructions are emitted there) *)
  mutable pack_last : (Ir.value_id, int) Hashtbl.t;
}

let position s v = Hashtbl.find_opt s.item_pos v

(* All members must be distinct region-level instruction items with the
   same predicate. *)
let uniform_region_insts s vs =
  let f = s.func in
  List.length (List.sort_uniq compare vs) = List.length vs
  && List.for_all (fun v -> position s v <> None) vs
  && (match vs with
     | v0 :: rest ->
       let p = (Ir.inst f v0).ipred in
       List.for_all (fun v -> Pred.equal (Ir.inst f v).ipred p) rest
     | [] -> false)

(* Can these instructions be packed: pairwise independent, and every
   instruction inside the pack's span must not depend on a member (the
   members all sink to the last member's position)?  With versioning
   enabled, conditional dependencies are handed to the framework; the
   returned plans are recorded on success. *)
let schedulable s (vs : Ir.value_id list) : bool =
  let g = (Lazy.force s.vsession).V.Api.s_graph in
  let nodes = List.map (fun v -> Ir.NI v) vs in
  let member_idx = List.map (Depgraph.node_index g) nodes in
  let positions = List.filter_map (fun v -> position s v) vs in
  let first = List.fold_left min max_int positions in
  let last = List.fold_left max 0 positions in
  let crossers =
    List.filteri (fun k _ -> k > first && k < last) s.items
    |> List.filter_map (fun item ->
           match item with
           | Ir.I v when not (List.mem v vs) ->
             (* members of an already accepted pack that executes at or
                after this pack's position sink out of the span with
                their own pack: their dependence on our members is
                preserved by the pack ordering *)
             (match Hashtbl.find_opt s.pack_last v with
             | Some pl when pl >= last -> None
             | _ -> Some (Ir.NI v))
           | Ir.L l -> Some (Ir.NL l)
           | _ -> None)
  in
  (* restrict to crossers that actually interact with members *)
  let interacting =
    List.filter
      (fun c ->
        let ci = Depgraph.node_index g c in
        List.exists
          (fun e -> List.mem e.Depgraph.e_dst member_idx)
          g.Depgraph.succ.(ci))
      crossers
  in
  (* packs that would need control-flow speculation (predicate
     conditions) are rejected: per-iteration speculation checks do not
     amortize under the cost model, unlike memory-disjointness checks,
     which promote to loop-invariant guards *)
  let rec has_control_conds (p : V.Plan.t) =
    List.exists
      (function Depcond.Apred _ -> true | Depcond.Aintersect _ -> false)
      p.V.Plan.p_conds
    || List.exists has_control_conds p.V.Plan.p_secondaries
  in
  if s.cfg.versioning then begin
    match
      V.Api.request_independence ~record:false (Lazy.force s.vsession) nodes
    with
    | None -> false
    | Some plan1 when has_control_conds plan1 -> false
    | Some plan1 -> (
      let plan2 =
        if interacting = [] then None
        else
          match
            V.Api.request_separation (Lazy.force s.vsession) ~nodes:interacting
              ~input_nodes:nodes
          with
          | None -> raise Exit (* sentinel: rejected *)
          | Some p when has_control_conds p -> raise Exit
          | Some p -> Some p
      in
      s.pending <- plan1 :: s.pending;
      (match plan2 with Some p -> s.pending <- p :: s.pending | None -> ());
      if not (V.Plan.is_trivial plan1) then incr s.plans_used;
      true)
  end
  else
    V.Api.already_independent (Lazy.force s.vsession) nodes
    && not
         (Depgraph.depends_on g
            ~excluded:(fun _ -> false)
            (List.map (Depgraph.node_index g) interacting)
            member_idx)

let schedulable s vs = try schedulable s vs with Exit -> false

(* ----------------------------------------------------------- packing *)

(* Try to form a pack from candidate members (already in lane order). *)
let rec try_pack s (vs : Ir.value_id list) : bool =
  if Hashtbl.mem s.accepted vs then true
  else if List.exists (Hashtbl.mem s.packed_values) vs then false
  else if not (uniform_region_insts s vs) then false
  else begin
    let f = s.func in
    let tags = List.map (inst_kind_tag f) vs in
    let tag0 = List.hd tags in
    if tag0 = `Other || List.exists (fun t -> t <> tag0) tags then false
    else begin
      let tys = List.map (fun v -> (Ir.inst f v).ty) vs in
      let ty0 = List.hd tys in
      if List.exists (fun t -> t <> ty0) tys || Ir.lanes_of_ty ty0 <> 1 then false
      else begin
        let shape_ok =
          match tag0 with
          | `Load ->
            consecutive (Lazy.force s.scev) f vs ~get_addr:load_addr ~width:1
            = Some vs (* loads must already be in address order *)
          | `Store ->
            consecutive (Lazy.force s.scev) f vs
              ~get_addr:(fun f v -> fst (store_parts f v))
              ~width:1
            = Some vs
          | _ -> true
        in
        shape_ok
        && schedulable s vs
        &&
        begin
          Hashtbl.replace s.accepted vs { members = vs };
          let last_pos =
            List.fold_left
              (fun acc v ->
                match position s v with Some p -> max acc p | None -> acc)
              0 vs
          in
          List.iter
            (fun v ->
              Hashtbl.replace s.packed_values v ();
              Hashtbl.replace s.pack_last v last_pos)
            vs;
          (* recurse into operand chains (best effort) *)
          let operand_lists =
            match (Ir.inst f (List.hd vs)).kind with
            | Ir.Store _ ->
              [ List.map (fun v -> snd (store_parts f v)) vs ]
            | Ir.Binop _ ->
              let op k v =
                match (Ir.inst f v).kind with
                | Ir.Binop (_, a, b) -> if k = 0 then a else b
                | _ -> assert false
              in
              [ List.map (op 0) vs; List.map (op 1) vs ]
            | Ir.Cmp _ ->
              let op k v =
                match (Ir.inst f v).kind with
                | Ir.Cmp (_, a, b) -> if k = 0 then a else b
                | _ -> assert false
              in
              [ List.map (op 0) vs; List.map (op 1) vs ]
            | Ir.Select _ ->
              let op k v =
                match (Ir.inst f v).kind with
                | Ir.Select { cond; if_true; if_false } ->
                  List.nth [ cond; if_true; if_false ] k
                | _ -> assert false
              in
              [ List.map (op 0) vs; List.map (op 1) vs; List.map (op 2) vs ]
            | Ir.Cast _ ->
              [
                List.map
                  (fun v ->
                    match (Ir.inst f v).kind with
                    | Ir.Cast (_, a) -> a
                    | _ -> assert false)
                  vs;
              ]
            | _ -> []
          in
          List.iter (fun ops -> ignore (try_pack s ops)) operand_lists;
          true
        end
      end
    end
  end

(* Store seeds: windows of {!Interp.vector_width} consecutive
   same-predicate stores. *)
let find_seeds s : Ir.value_id list list =
  let f = s.func in
  let stores =
    List.filter_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).kind with
          | Ir.Store { value; _ } when Ir.lanes_of_ty (Ir.inst f value).ty = 1 ->
            Some v
          | _ -> None)
        | Ir.L _ -> None)
      s.items
  in
  (* group by predicate and by the non-constant part of the address *)
  let keyed =
    List.map
      (fun v ->
        let addr, _ = store_parts f v in
        let lin = Scev.linexp (Lazy.force s.scev) addr in
        ((Ir.inst f v).ipred, Linexp.terms lin, Linexp.constant lin, v))
      stores
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (p, terms, konst, v) ->
      let key = (p, terms) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key ((konst, v) :: cur))
    keyed;
  Hashtbl.fold
    (fun _ entries acc ->
      let sorted = List.sort compare entries in
      (* consecutive windows *)
      let rec windows acc = function
        | (k0, v0) :: rest when List.length rest >= Interp.vector_width - 1 ->
          let rec take n expect = function
            | _ when n = 0 -> Some []
            | (k, v) :: tl when k = expect ->
              Option.map (fun l -> v :: l) (take (n - 1) (expect + 1) tl)
            | _ -> None
          in
          (match take (Interp.vector_width - 1) (k0 + 1) rest with
          | Some tail ->
            windows ((v0 :: tail) :: acc)
              (List.filteri (fun i _ -> i >= Interp.vector_width - 1) rest)
          | None -> windows acc rest)
        | _ :: rest -> windows acc rest
        | [] -> List.rev acc
      in
      windows [] sorted @ acc)
    groups []
  (* the table above is keyed on interned predicates, whose hashes (and
     hence fold order) vary with the domain's interning history: fix a
     structural order so packing decisions and remark streams are
     byte-identical at any --jobs *)
  |> List.sort (List.compare Int.compare)

(* ----------------------------------------------------------- codegen *)

exception Skip_pack

let codegen s : int =
  let f = s.func in
  (* refresh item list after materialization *)
  let items = ref (Ir.region_items f s.region) in
  let pos_of v =
    let rec go k = function
      | [] -> None
      | Ir.I w :: _ when w = v -> Some k
      | _ :: rest -> go (k + 1) rest
    in
    go 0 !items
  in
  let vector_of_pack : (Ir.value_id list, Ir.value_id) Hashtbl.t =
    Hashtbl.create 8
  in
  (* packs ordered by the position of their last member *)
  let packs =
    Hashtbl.fold (fun _ p acc -> p :: acc) s.accepted []
    |> List.filter_map (fun p ->
           let ps = List.filter_map pos_of p.members in
           if List.length ps = List.length p.members then
             Some (List.fold_left max 0 ps, p)
           else None)
    |> List.sort compare
  in
  let emitted = ref 0 in
  let insert_after_value anchor new_items =
    let rec go = function
      | [] -> invalid_arg "Slp.codegen: anchor vanished"
      | (Ir.I w as it) :: rest when w = anchor -> it :: (new_items @ rest)
      | it :: rest -> it :: go rest
    in
    items := go !items
  in
  let remove_values vs =
    items :=
      List.filter
        (fun item ->
          match item with Ir.I v -> not (List.mem v vs) | Ir.L _ -> true)
        !items
  in
  List.iter
    (fun (_, p) ->
      try
        let members = p.members in
        let f0 = Ir.inst f (List.hd members) in
        let pred0 = f0.ipred in
        if
          not
            (List.for_all
               (fun v -> Pred.equal (Ir.inst f v).ipred pred0)
               members)
        then raise Skip_pack;
        (* the vector instruction is emitted at the program-order-last
           member (lane order is address order, which runs backwards in
           descending loops) *)
        let last =
          fst
            (List.fold_left
               (fun (best, bp) v ->
                 match pos_of v with
                 | Some p when p > bp -> (v, p)
                 | _ -> (best, bp))
               (List.hd members, -1)
               members)
        in
        let buf = ref [] in
        let emit ?(name = "") kind ty =
          let i = Ir.new_inst ~name f ~kind ~ty ~pred:pred0 in
          buf := Ir.I i.id :: !buf;
          i.id
        in
        let vec_ty elem = Ir.Tvec (elem, Interp.vector_width) in
        (* resolve a lane list of scalar values into one vector value *)
        let resolve vs =
          match Hashtbl.find_opt vector_of_pack vs with
          | Some v -> v
          | None -> (
            match vs with
            | v0 :: rest when List.for_all (fun v -> v = v0) rest ->
              emit ~name:"splat" (Ir.Splat v0) (vec_ty (Ir.inst f v0).ty)
            | _ ->
              emit ~name:"gather" (Ir.Vecbuild vs)
                (vec_ty (Ir.inst f (List.hd vs)).ty))
        in
        let vec =
          match f0.kind with
          | Ir.Store _ ->
            let parts = List.map (store_parts f) members in
            let addr0 = fst (List.hd parts) in
            let value_vec = resolve (List.map snd parts) in
            let st =
              emit ~name:"vstore"
                (Ir.Store { addr = addr0; value = value_vec })
                Ir.Tvoid
            in
            st
          | Ir.Load _ ->
            let addr0 = load_addr f (List.hd members) in
            emit ~name:"vload" (Ir.Load { addr = addr0 }) (vec_ty f0.ty)
          | Ir.Binop (op, _, _) ->
            let ops k =
              List.map
                (fun v ->
                  match (Ir.inst f v).kind with
                  | Ir.Binop (_, a, b) -> if k = 0 then a else b
                  | _ -> assert false)
                members
            in
            let a = resolve (ops 0) in
            let b = resolve (ops 1) in
            emit ~name:"vbin" (Ir.Binop (op, a, b)) (vec_ty f0.ty)
          | Ir.Cmp (op, _, _) ->
            let ops k =
              List.map
                (fun v ->
                  match (Ir.inst f v).kind with
                  | Ir.Cmp (_, a, b) -> if k = 0 then a else b
                  | _ -> assert false)
                members
            in
            let a = resolve (ops 0) in
            let b = resolve (ops 1) in
            emit ~name:"vcmp" (Ir.Cmp (op, a, b)) (vec_ty Ir.Tbool)
          | Ir.Select _ ->
            let ops k =
              List.map
                (fun v ->
                  match (Ir.inst f v).kind with
                  | Ir.Select { cond; if_true; if_false } ->
                    List.nth [ cond; if_true; if_false ] k
                  | _ -> assert false)
                members
            in
            let c = resolve (ops 0) in
            let a = resolve (ops 1) in
            let b = resolve (ops 2) in
            emit ~name:"vsel"
              (Ir.Select { cond = c; if_true = a; if_false = b })
              (vec_ty f0.ty)
          | Ir.Cast (t, _) ->
            let ops =
              List.map
                (fun v ->
                  match (Ir.inst f v).kind with
                  | Ir.Cast (_, a) -> a
                  | _ -> assert false)
                members
            in
            let a = resolve ops in
            emit ~name:"vcast" (Ir.Cast (t, a)) (vec_ty t)
          | _ -> raise Skip_pack
        in
        insert_after_value last (List.rev !buf);
        Hashtbl.replace vector_of_pack members vec;
        (match f0.kind with
        | Ir.Store _ ->
          remove_values members;
          List.iter (Ir.remove_inst f) members
        | _ -> ());
        incr emitted
      with Skip_pack -> ())
    packs;
  Ir.set_region_items f s.region !items;
  !emitted

(* --------------------------------------------------------------- run *)

(* Vectorize one region. Returns the number of vector instructions
   emitted. *)
let run_region ~config (f : Ir.func) (region : Ir.region)
    (plans_used : int ref) : int =
  let scev = lazy (Scev.create f) in
  let vsession =
    lazy (V.Api.create ~condopt:config.condopt ~scev:(Lazy.force scev) f region)
  in
  let items = Ir.region_items f region in
  let item_pos = Hashtbl.create (max 16 (List.length items)) in
  List.iteri
    (fun k item ->
      match item with
      | Ir.I v -> Hashtbl.replace item_pos v k
      | Ir.L _ -> ())
    items;
  let s =
    {
      cfg = config;
      func = f;
      region;
      scev;
      vsession;
      items;
      item_pos;
      plans_used;
      pending = [];
      accepted = Hashtbl.create 8;
      packed_values = Hashtbl.create 32;
      pack_last = Hashtbl.create 32;
    }
  in
  let seeds = Fgv_support.Trace.with_span "slp.seeds" (fun () -> find_seeds s) in
  Fgv_support.Trace.with_span "slp.pack" (fun () ->
      List.iter (fun seed -> ignore (try_pack s seed)) seeds);
  if Hashtbl.length s.accepted = 0 then 0
  else begin
    (* paper integration point 2: materialize the plans, then generate
       vector code.  All committed packs are versioned together under
       the union of the inferred conditions, so the check-passing path
       carries only the vector code and the fallback only the scalar
       clones. *)
    let members =
      Hashtbl.fold
        (fun _ p acc -> List.map (fun v -> Ir.NI v) p.members @ acc)
        s.accepted []
    in
    (* split the plans into those whose conditions are loop-invariant
       (upgradeable to one check guarding the whole loop) and the rest
       (per-iteration dual paths); pack members ride with whichever
       bucket exists so the fast path is purely vector *)
    let invariant_plan =
      match region with
      | Ir.Rtop -> fun _ -> false
      | Ir.Rloop lid -> V.Plan.before_loop f lid
    in
    let invariant, residual = List.partition invariant_plan s.pending in
    let record ~extra plans =
      match V.Api.union_plans f ~extra_nodes:extra plans with
      | Some plan -> V.Api.record_plan (Lazy.force vsession) plan
      | None -> ()
    in
    record ~extra:(if residual = [] then [] else members) residual;
    record ~extra:[] invariant;
    if V.Api.materialize ~loop_upgrade:true (Lazy.force vsession) <> None then
      Fgv_support.Trace.with_span "slp.codegen" (fun () -> codegen s)
    else begin
      (* a plan could not be materialized in the current program state:
         the independence the packs relied on was NOT established, so no
         vector code may be emitted for this region (the partial
         versioning left behind is semantics-preserving on its own) *)
      0
    end
  end

(* Vectorize every region of the function (innermost loops first).
   Returns the vector instructions emitted and the non-trivial plans
   committed. *)
let run ~config (f : Ir.func) : int * int =
  let plans_used = ref 0 in
  let total = ref 0 in
  List.iter
    (fun region -> total := !total + run_region ~config f region plans_used)
    (Ir.regions f);
  (!total, !plans_used)
