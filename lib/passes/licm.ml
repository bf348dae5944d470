(* Loop-invariant code motion for PSSA.

   An instruction is hoisted out of its loop when all of its data
   operands and predicate literals are defined before the loop; loads
   additionally require that no may-write in the loop can touch their
   address (statically disjoint, or covered by a scoped-independence
   fact established by versioning).  Hoisted instructions run under the
   loop's guard predicate.  Sweeps repeat so code migrates out of nests
   one level per round.

   Computed once per run, not once per sweep: the SCEV (load safety
   reads only address linear expressions, which depend on instruction
   kinds, and hoisting changes no kind), the effective predicates
   (hoisting [v] out of loop [l] turns ctx /\ l.guard /\ v.pred into
   ctx /\ (l.guard /\ v.pred), the same hash-consed conjunction), and an
   index of [f.indep_scopes] by instruction pair (LICM records no
   independence facts).  The program-order table is rebuilt every
   sweep: hoisting moves instructions, and the order decides what is
   defined before a loop. *)

open Fgv_pssa
open Fgv_analysis

let run (f : Ir.func) : int =
  let hoisted = ref 0 in
  let changed = ref true in
  let scev = Scev.create f in
  let eff = Ir.effective_preds f in
  let scopes = Ir.indep_scope_index f in
  while !changed do
    changed := false;
    let order = Ir.compute_order f in
    (* hoist from [lp]'s body into the parent's item list; returns the
       rewritten parent items *)
    let rec process_items items =
      List.concat_map
        (fun item ->
          match item with
          | Ir.I _ -> [ item ]
          | Ir.L lid ->
            let lp = Ir.loop f lid in
            lp.body <- process_items lp.body;
            let loop_start = order (Ir.NL lid) in
            let defined_outside v = order (Ir.NI v) < loop_start in
            let writes =
              List.filter
                (fun m -> Ir.may_write_inst (Ir.inst f m))
                (Ir.memory_insts f (Ir.L lid))
            in
            let load_safe v =
              match Scev.range_of_access scev v with
              | None -> false
              | Some r ->
                List.for_all
                  (fun w ->
                    Ir.in_indep_scope ~eff ~scopes v w
                    ||
                    match Scev.range_of_access scev w with
                    | None -> false
                    | Some rw -> Alias.relate f r rw = Alias.Disjoint)
                  writes
            in
            let hoistable v =
              let i = Ir.inst f v in
              let pure_ok =
                match i.kind with
                | Ir.Const _ | Ir.Arg _ | Ir.Binop _ | Ir.Cmp _ | Ir.Cast _
                | Ir.Select _ | Ir.Splat _ | Ir.Vecbuild _ | Ir.Extract _ ->
                  true
                | Ir.Load _ -> load_safe v
                | Ir.Call { effect = Ir.Pure; _ } -> true
                | _ -> false
              in
              pure_ok
              && List.for_all defined_outside (Ir.all_operands i)
              (* division can trap; keep it guarded inside the loop unless
                 the divisor is a nonzero constant *)
              && (match i.kind with
                 | Ir.Binop ((Ir.Div | Ir.Rem), _, b) -> (
                   match (Ir.inst f b).kind with
                   | Ir.Const (Ir.Cint n) -> n <> 0
                   | _ -> false)
                 | _ -> true)
            in
            let to_hoist, kept =
              List.partition
                (fun it ->
                  match it with Ir.I v -> hoistable v | Ir.L _ -> false)
                lp.body
            in
            if to_hoist = [] then [ item ]
            else begin
              changed := true;
              hoisted := !hoisted + List.length to_hoist;
              lp.body <- kept;
              (* hoisted code runs under the loop guard *)
              List.iter
                (fun it ->
                  match it with
                  | Ir.I v ->
                    let i = Ir.inst f v in
                    i.ipred <- Pred.and_ lp.lpred i.ipred
                  | Ir.L _ -> ())
                to_hoist;
              to_hoist @ [ item ]
            end)
        items
    in
    f.Ir.fbody <- process_items f.Ir.fbody
  done;
  !hoisted
