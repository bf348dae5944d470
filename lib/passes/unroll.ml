(* Loop unrolling by a constant factor for innermost counted loops.

   for-loops become:

     t   = trip count               (materialized, region level)
     tm  = (t / F) * F              (main-loop iterations)
     L'  : do F copies of the body while consumed + F <= tm
     e_k = eta(L', m'_k)            (induction state after the main loop)
     Le  : the original loop, with mu inits replaced by e_k, guarded by
           t - tm > 0               (the remainder iterations)

   Existing etas over the original loop are retargeted to Le, which
   chains correctly through skipped loops (eta of a skipped loop yields
   the mu init).  Only loops whose region-level live-outs are etas over
   mus are eligible — exactly what the mini-C frontend produces.

   This is the standard preparation step for SLP vectorization across
   loop iterations (SuperVectorization packs across the unrolled body). *)

open Fgv_pssa
open Fgv_analysis

(* simple sequential emitter *)
type em = { ef : Ir.func; mutable acc : Ir.item list }

let emit ?(name = "") em kind ty =
  let i = Ir.new_inst ~name em.ef ~kind ~ty ~pred:Pred.tru in
  em.acc <- Ir.I i.id :: em.acc;
  i.id

let emit_linexp em (e : Linexp.t) =
  match Linexp.terms e, Linexp.constant e with
  | [ (v, 1) ], 0 -> v
  | terms, konst ->
    let start = emit em (Ir.Const (Cint konst)) Tint in
    List.fold_left
      (fun acc (v, k) ->
        let t =
          if k = 1 then v
          else
            let kc = emit em (Ir.Const (Cint k)) Tint in
            emit em (Ir.Binop (Mul, v, kc)) Tint
        in
        emit em (Ir.Binop (Add, acc, t)) Tint)
      start terms

let has_nested_loop f lid =
  List.exists
    (function Ir.L _ -> true | Ir.I _ -> false)
    (Ir.loop f lid).body

(* etas over this loop, which must all read mus *)
let loop_etas f lid =
  let etas = ref [] in
  Ir.iter_insts f (fun i ->
      match i.kind with
      | Ir.Eta { loop; value } when loop = lid -> etas := (i.id, value) :: !etas
      | _ -> ());
  !etas

let eligible f scev lid =
  let lp = Ir.loop f lid in
  (not (has_nested_loop f lid))
  && Scev.trip scev lp <> None
  && List.for_all (fun (_, v) -> List.mem v lp.mus) (loop_etas f lid)

(* Unroll one eligible loop; returns the replacement items. *)
let unroll_loop (f : Ir.func) (scev : Scev.t) (lid : Ir.loop_id) ~factor :
    Ir.item list =
  let lp = Ir.loop f lid in
  let trip = Option.get (Scev.trip scev lp) in
  let em = { ef = f; acc = [] } in
  let t_v = emit_linexp em trip in
  let f_c = emit em (Ir.Const (Cint factor)) Tint in
  let q = emit em (Ir.Binop (Div, t_v, f_c)) Tint in
  let tm = emit ~name:"tm" em (Ir.Binop (Mul, q, f_c)) Tint in
  let zero = emit em (Ir.Const (Cint 0)) Tint in
  let tm_pos = emit em (Ir.Cmp (Gt, tm, zero)) Tbool in
  let rem = emit ~name:"rem" em (Ir.Binop (Sub, t_v, tm)) Tint in
  let rem_pos = emit em (Ir.Cmp (Gt, rem, zero)) Tbool in
  (* ---- main loop with [factor] body copies ---- *)
  let main = Ir.new_loop f ~pred:(Pred.and_ lp.lpred (Pred.lit tm_pos)) in
  let mu_info =
    List.map
      (fun m ->
        match (Ir.inst f m).kind with
        | Ir.Mu { init; recur; _ } -> (m, init, recur)
        | _ -> invalid_arg "Unroll: non-mu in header")
      lp.mus
  in
  let main_mus =
    List.map
      (fun (m, init, _) ->
        let mi = Ir.inst f m in
        let nm =
          Ir.new_inst ~name:mi.name f
            ~kind:(Ir.Mu { init; recur = init (* patched below *); loop = main.lid })
            ~ty:mi.ty ~pred:Pred.tru
        in
        (m, nm.id))
      mu_info
  in
  main.mus <- List.map snd main_mus;
  (* the consumed-iterations counter *)
  let ctr_init = emit em (Ir.Const (Cint 0)) Tint in
  let ctr =
    Ir.new_inst ~name:"unroll_ctr" f
      ~kind:(Ir.Mu { init = ctr_init; recur = ctr_init; loop = main.lid })
      ~ty:Tint ~pred:Pred.tru
  in
  main.mus <- main.mus @ [ ctr.id ];
  (* body copies *)
  let scopes_before = f.Ir.indep_scopes in
  let copy_remaps = ref [] in
  let body = ref [] in
  let cur = Hashtbl.create 8 in
  (* current value of each original mu *)
  List.iter (fun (m, nm) -> Hashtbl.replace cur m nm) main_mus;
  for _copy = 1 to factor do
    let remap = Hashtbl.create 32 in
    List.iter (fun (m, _, _) -> Hashtbl.replace remap m (Hashtbl.find cur m)) mu_info;
    let copies = List.map (Ir.clone_item f remap) lp.body in
    copy_remaps := remap :: !copy_remaps;
    body := !body @ copies;
    (* advance: the next copy's view of each mu is this copy's recur *)
    List.iter
      (fun (m, _, recur) ->
        let next = Option.value ~default:recur (Hashtbl.find_opt remap recur) in
        Hashtbl.replace cur m next)
      mu_info
  done;
  (* counter advance and continue condition, inside the body *)
  let bem = { ef = f; acc = [] } in
  let f_cb = emit bem (Ir.Const (Cint factor)) Tint in
  let nxt = emit bem (Ir.Binop (Add, ctr.id, f_cb)) Tint in
  let nxt2 = emit bem (Ir.Binop (Add, nxt, f_cb)) Tint in
  let more = emit bem (Ir.Cmp (Le, nxt2, tm)) Tbool in
  main.body <- !body @ List.rev bem.acc;
  main.cont <- Pred.lit more;
  (match ctr.kind with
  | Ir.Mu mu -> ctr.kind <- Ir.Mu { mu with recur = nxt }
  | _ -> ());
  (* patch main mu recurs to the fully advanced values *)
  List.iter
    (fun (m, nm) ->
      let i = Ir.inst f nm in
      match i.kind with
      | Ir.Mu mu -> i.kind <- Ir.Mu { mu with recur = Hashtbl.find cur m }
      | _ -> ())
    main_mus;
  (* ---- etas carrying induction state out of the main loop ---- *)
  let after_em = { ef = f; acc = [] } in
  let main_etas =
    List.map
      (fun (m, nm) ->
        let mi = Ir.inst f m in
        let e =
          Ir.new_inst ~name:(mi.name ^ "_mid") f
            ~kind:(Ir.Eta { loop = main.lid; value = nm })
            ~ty:mi.ty ~pred:Pred.tru
        in
        after_em.acc <- Ir.I e.id :: after_em.acc;
        (m, e.id))
      main_mus
  in
  (* ---- epilogue: the original loop, starting from the main etas ---- *)
  let remap_e = Hashtbl.create 32 in
  let epi_item = Ir.clone_item f remap_e (Ir.L lid) in
  let epi_lid = match epi_item with Ir.L l -> l | _ -> assert false in
  let epi = Ir.loop f epi_lid in
  epi.lpred <- Pred.and_ lp.lpred (Pred.lit rem_pos);
  List.iter
    (fun (m, _, _) ->
      let cm = Hashtbl.find remap_e m in
      let ci = Ir.inst f cm in
      match ci.kind with
      | Ir.Mu mu -> ci.kind <- Ir.Mu { mu with init = List.assoc m main_etas }
      | _ -> ())
    mu_info;
  (* retarget existing etas to the epilogue *)
  List.iter
    (fun (eta_id, value) ->
      let ei = Ir.inst f eta_id in
      ei.kind <- Ir.Eta { loop = epi_lid; value = Hashtbl.find remap_e value })
    (loop_etas f lid
    |> List.filter (fun (e, _) -> not (Hashtbl.mem remap_e e)));
  (* cross-copy independence: a scope fact between two original body
     instructions also holds between *different* copies of them (the
     fact came from whole-range disjointness, which covers every
     iteration pair); clone_item only transferred same-copy pairs *)
  let all_remaps = remap_e :: !copy_remaps in
  let cross =
    List.concat_map
      (fun (x, y, p) ->
        List.concat_map
          (fun ra ->
            List.filter_map
              (fun rb ->
                if ra == rb then None
                else
                  match Hashtbl.find_opt ra x, Hashtbl.find_opt rb y with
                  | Some x', Some y' -> Some (x', y', p)
                  | _ -> None)
              all_remaps)
          all_remaps)
      scopes_before
  in
  f.Ir.indep_scopes <- cross @ f.Ir.indep_scopes;
  (* drop the original loop from the arena *)
  List.iter (Ir.remove_inst f) (Ir.defined_values f (Ir.L lid));
  Ir.remove_loop f lid;
  List.rev em.acc @ [ Ir.L main.lid ] @ List.rev after_em.acc @ [ epi_item ]

(* Unroll every eligible innermost loop satisfying [select]. *)
let run ?(factor = 4) ?(select = fun (_ : Ir.loop_id) -> true) (f : Ir.func) :
    int =
  let scev = Scev.create f in
  let count = ref 0 in
  let rec walk items =
    List.concat_map
      (fun item ->
        match item with
        | Ir.I _ -> [ item ]
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          if has_nested_loop f lid then begin
            lp.body <- walk lp.body;
            [ item ]
          end
          else if eligible f scev lid && select lid then begin
            incr count;
            unroll_loop f scev lid ~factor
          end
          else [ item ])
      items
  in
  f.Ir.fbody <- walk f.Ir.fbody;
  !count
