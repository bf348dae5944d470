(* Baseline loop vectorizer with *classic* loop versioning, standing in
   for LLVM's -O3 loop vectorizer in the evaluation.

   The defining property of classic loop versioning (and its limitation,
   which the paper exploits) is that every run-time check must be
   computable *before* the loop: the accessed ranges of every pair of
   possibly-aliasing accesses are over-approximated over the whole
   iteration space and checked for disjointness up front.  Loops whose
   ranges cannot be promoted to loop-invariant bounds (complex pointer
   arithmetic), or with loop-variant conflicts (in-place updates such as
   floyd-warshall, crossing accesses such as TSVC s281), cannot be
   versioned this way and are left scalar.

   Mechanically the pass:
   1. computes the pairwise whole-loop disjointness checks (bailing if
      any needed check is not loop-invariant);
   2. versions the loop on those checks (the framework's materializer
      on a {!Fgv_versioning.Plan.whole_loop} plan, whose scope pairs
      record the established disjointness);
   3. unrolls the fast-path loop by the vector width; and
   4. runs the *static* SLP packer over the function, which now sees the
      disjointness facts and emits vector code. *)

open Fgv_pssa
open Fgv_analysis
module V = Fgv_versioning

type outcome = Vectorized | Not_vectorized of string

(* Pairwise whole-loop checks; None when classic versioning is
   impossible. *)
let classic_checks (f : Ir.func) (scev : Scev.t) (lid : Ir.loop_id) :
    (Depcond.atom list * (Ir.value_id * Ir.value_id) list) option =
  let mems = Ir.memory_insts f (Ir.L lid) in
  if List.exists (fun v -> match (Ir.inst f v).kind with Ir.Call _ -> true | _ -> false) mems
  then None
  else begin
    let out_of l = l = lid in
    let promoted v =
      match Scev.range_of_access scev v with
      | None -> None
      | Some r -> Scev.promote_range scev ~out_of r
    in
    let atoms = ref [] and pairs = ref [] in
    let feasible = ref true in
    let consider w a =
      let const_distance =
        (* same-object accesses at a constant dependence distance: exact
           static reasoning (the packer's) applies; no run-time check *)
        match Scev.range_of_access scev w, Scev.range_of_access scev a with
        | Some rw, Some ra ->
          V.Condopt.range_offset rw ra <> None
        | _ -> false
      in
      if const_distance then ()
      else
      match promoted w, promoted a with
      | Some rw, Some ra -> (
        match Alias.relate f rw ra with
        | Alias.Disjoint -> ()
        | Alias.Overlap ->
          (* same-object ranges (in-place updates): leave the fine-grained
             reasoning to the static packer on the unrolled body *)
          ()
        | Alias.Unknown ->
          atoms := Depcond.Aintersect (rw, ra) :: !atoms;
          pairs := (w, a) :: !pairs)
      | _ ->
        (* range not expressible before the loop: if the raw ranges are
           not statically disjoint, classic versioning cannot help *)
        let statically_fine =
          match Scev.range_of_access scev w, Scev.range_of_access scev a with
          | Some rw, Some ra -> Alias.relate f rw ra = Alias.Disjoint
          | _ -> false
        in
        if not statically_fine then feasible := false
    in
    List.iteri
      (fun i w ->
        if Ir.may_write_inst (Ir.inst f w) then
          List.iteri (fun j a -> if i <> j then consider w a) mems)
      mems;
    if !feasible then Some (V.Plan.dedup_atoms !atoms, !pairs) else None
  end

(* region containing each top-level-or-nested loop *)
let region_of_loop f lid =
  match Ir.loop_parent f lid with
  | Some r -> r
  | None -> invalid_arg "Loopvec: loop not placed"

let vectorize_loop (f : Ir.func) (lid : Ir.loop_id) : outcome =
  let scev = Scev.create f in
  if not (Unroll.eligible f scev lid) then Not_vectorized "not a counted innermost loop"
  else
    match classic_checks f scev lid with
    | None -> Not_vectorized "checks are not loop-invariant"
    | Some (atoms, pairs) ->
      let region = region_of_loop f lid in
      let versioned_ok =
        atoms = []
        || fst
             (V.Materialize.run f region
                [ V.Plan.whole_loop lid ~conds:atoms ~pairs ])
      in
      if not versioned_ok then Not_vectorized "versioning failed to materialize"
      else begin
        (* unroll the fast-path loop (the original keeps its id) *)
        let n = Unroll.run ~select:(fun l -> l = lid) f in
        if n = 0 then Not_vectorized "unroll failed"
        else Vectorized
      end

(* Vectorize every innermost loop, then run the static packer.  Returns
   the number of loops vectorized. *)
let run (f : Ir.func) : int =
  (* snapshot the loops first: the transform rewrites the body *)
  let rec innermost items acc =
    List.fold_left
      (fun acc item ->
        match item with
        | Ir.I _ -> acc
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          let nested = innermost lp.body [] in
          if nested = [] then lid :: acc else nested @ acc)
      acc items
  in
  let loops = innermost f.Ir.fbody [] in
  let vectorized =
    List.fold_left
      (fun n lid ->
        match vectorize_loop f lid with
        | Vectorized -> n + 1
        | Not_vectorized _ -> n)
      0 loops
  in
  if vectorized > 0 then ignore (Slp.run ~config:None f);
  vectorized
