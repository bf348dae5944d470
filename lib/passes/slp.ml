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

(* [Some condopt] packs with fine-grained versioning for conditional
   dependences, its plans' conditions optimized under [condopt]; [None]
   is the static packer, which never asks for a plan. *)
type config = V.Condopt.config option

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

(* The scalar operands of a pack as lane lists, operand by operand: a
   store's stored values, an arithmetic instruction's data operands, and
   nothing for a load.  Members share their opcode, so every member has
   as many operands. *)
let lane_operands f vs =
  let operands v =
    match (Ir.inst f v).kind with
    | Ir.Store { value; _ } -> [ value ]
    | Ir.Load _ -> []
    | kind -> Ir.data_operands kind
  in
  let rec transpose = function
    | [] :: _ | [] -> []
    | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)
  in
  transpose (List.map operands vs)

(* The vector form of a pack whose first member is [i], over the vectors
   of its lane operands: its name, kind and type. *)
let vector_inst (i : Ir.inst) ops =
  let vec elem = Ir.Tvec (elem, Interp.vector_width) in
  match (i.kind, ops) with
  | Ir.Store { addr; _ }, [ value ] ->
    ("vstore", Ir.Store { addr; value }, Ir.Tvoid)
  | Ir.Load _, [] -> ("vload", i.kind, vec i.ty)
  | Ir.Binop (op, _, _), [ a; b ] -> ("vbin", Ir.Binop (op, a, b), vec i.ty)
  | Ir.Cmp (op, _, _), [ a; b ] -> ("vcmp", Ir.Cmp (op, a, b), vec Ir.Tbool)
  | Ir.Select _, [ cond; if_true; if_false ] ->
    ("vsel", Ir.Select { cond; if_true; if_false }, vec i.ty)
  | Ir.Cast (t, _), [ a ] -> ("vcast", Ir.Cast (t, a), vec t)
  | _ -> invalid_arg "Slp.vector_inst"

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
  accepted : (Ir.value_id list, unit) Hashtbl.t; (* members, lane order *)
  (* position of the last member of the pack containing each packed
     value (vector instructions are emitted there) *)
  pack_last : (Ir.value_id, int) Hashtbl.t;
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
  if Option.is_some s.cfg then begin
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
  else if List.exists (Hashtbl.mem s.pack_last) vs then false
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
          Hashtbl.replace s.accepted vs ();
          let last_pos =
            List.fold_left
              (fun acc v ->
                match position s v with Some p -> max acc p | None -> acc)
              0 vs
          in
          List.iter (fun v -> Hashtbl.replace s.pack_last v last_pos) vs;
          (* recurse into operand chains (best effort) *)
          List.iter (fun ops -> ignore (try_pack s ops)) (lane_operands f vs);
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

(* Emit each pack's vector code after its last member, packs in the
   order of that position, and drop the members of store packs; the
   region's item list is rebuilt once.  Packs are disjoint, and placing
   code after an item or dropping a store pack's members never reorders
   the other items, so the positions read once after materialization
   hold for every pack. *)
let codegen s : int =
  let f = s.func in
  let items = Ir.region_items f s.region in
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun k item ->
      match item with Ir.I v -> Hashtbl.replace pos v k | Ir.L _ -> ())
    items;
  (* the packs still whole in the region, keyed by the position of their
     program-order-last member (lane order is address order, which runs
     backwards in descending loops) *)
  let packs =
    Hashtbl.fold
      (fun members () acc ->
        if List.for_all (Hashtbl.mem pos) members then
          let at v = (Hashtbl.find pos v, v) in
          let last = List.fold_left (fun m v -> max m (at v)) (-1, -1) members in
          (last, members) :: acc
        else acc)
      s.accepted []
    |> List.sort compare
  in
  let vector_of_pack = Hashtbl.create 8 in
  let code_after = Hashtbl.create 8 and dropped = Hashtbl.create 8 in
  let emitted = ref 0 in
  List.iter
    (fun ((_, last), members) ->
      let i0 = Ir.inst f (List.hd members) in
      if List.for_all (fun v -> Pred.equal (Ir.inst f v).ipred i0.ipred) members
      then begin
        let code = ref [] in
        let emit name kind ty =
          let i = Ir.new_inst ~name f ~kind ~ty ~pred:i0.ipred in
          code := Ir.I i.id :: !code;
          i.id
        in
        (* a lane list of scalar values as one vector value *)
        let resolve vs =
          match Hashtbl.find_opt vector_of_pack vs with
          | Some v -> v
          | None ->
            let v0 = List.hd vs in
            let ty = Ir.Tvec ((Ir.inst f v0).ty, Interp.vector_width) in
            if List.for_all (fun v -> v = v0) vs then
              emit "splat" (Ir.Splat v0) ty
            else emit "gather" (Ir.Vecbuild vs) ty
        in
        (* operands resolve left to right, which fixes the ids their
           splats and gathers take *)
        let name, kind, ty =
          vector_inst i0 (List.map resolve (lane_operands f members))
        in
        let vec = emit name kind ty in
        Hashtbl.replace code_after last (List.rev !code);
        Hashtbl.replace vector_of_pack members vec;
        (match i0.kind with
        | Ir.Store _ ->
          List.iter
            (fun v ->
              Hashtbl.replace dropped v ();
              Ir.remove_inst f v)
            members
        | _ -> ());
        incr emitted
      end)
    packs;
  Ir.set_region_items f s.region
    (List.concat_map
       (fun item ->
         match item with
         | Ir.L _ -> [ item ]
         | Ir.I v ->
           let code =
             Option.value ~default:[] (Hashtbl.find_opt code_after v)
           in
           if Hashtbl.mem dropped v then code else item :: code)
       items);
  !emitted

(* --------------------------------------------------------------- run *)

(* Vectorize one region. Returns the number of vector instructions
   emitted. *)
let run_region ~config (f : Ir.func) (region : Ir.region)
    (plans_used : int ref) : int =
  let scev = lazy (Scev.create f) in
  let vsession =
    lazy (V.Api.create ?condopt:config ~scev:(Lazy.force scev) f region)
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
        (fun members () acc -> List.map (fun v -> Ir.NI v) members @ acc)
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
