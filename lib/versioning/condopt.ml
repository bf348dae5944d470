(* Optimizations on versioning conditions before materialization
   (paper SIV-A): redundant condition elimination, condition coalescing,
   and condition promotion. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

(* Constant offset between two ranges, defined only when the lower and
   upper bounds shift by the same amount. *)
let range_offset (r1 : Scev.range) (r2 : Scev.range) : int option =
  match Linexp.diff r1.Scev.lo r2.Scev.lo, Linexp.diff r1.Scev.hi r2.Scev.hi with
  | Some a, Some b when a = b -> Some a
  | _ -> None

(* A key for [atoms_equivalent]'s classes.  A predicate keys itself.  An
   intersection check keys the term lists of its four bounds plus the
   other three constants' offsets from the first lower bound's, so two
   checks shifted by one common constant get one key; of the two
   operand orders the lesser key is taken, so swapped operands get one
   key too.  Two atoms are equivalent exactly when their keys are
   equal. *)
type key =
  | Kpred of Pred.t
  | Krange of {
      terms : (Ir.value_id * int) list list; (* a.lo, a.hi, b.lo, b.hi *)
      offsets : int * int * int; (* a.hi, b.lo, b.hi minus a.lo *)
    }

module Key = struct
  type t = key

  let equal x y =
    match x, y with
    | Kpred p, Kpred q -> Pred.equal p q
    | Krange a, Krange b -> a.terms = b.terms && a.offsets = b.offsets
    | _ -> false

  (* equal predicates mention the same literals *)
  let hash = function
    | Kpred p -> Hashtbl.hash (Pred.literals p)
    | Krange { terms; offsets } -> Hashtbl.hash (terms, offsets)
end

module Keys = Hashtbl.Make (Key)

let oriented_key (a : Scev.range) (b : Scev.range) =
  let k = Linexp.constant a.Scev.lo in
  Krange
    {
      terms = List.map Linexp.terms [ a.Scev.lo; a.Scev.hi; b.Scev.lo; b.Scev.hi ];
      offsets =
        ( Linexp.constant a.Scev.hi - k,
          Linexp.constant b.Scev.lo - k,
          Linexp.constant b.Scev.hi - k );
    }

let key = function
  | Depcond.Apred p -> Kpred p
  | Depcond.Aintersect (a, b) -> min (oriented_key a b) (oriented_key b a)

(* Two intersection checks are equivalent when both sides are shifted by
   the same constant (possibly with the operands swapped); two
   predicates when they are equal. *)
let atoms_equivalent a b = Key.equal (key a) (key b)

(* Redundant condition elimination: keep one representative per
   equivalence class, the first. *)
let eliminate_redundant atoms =
  let seen = Keys.create 16 in
  List.filter
    (fun atom ->
      let k = key atom in
      if Keys.mem seen k then false
      else begin
        Keys.add seen k ();
        true
      end)
    atoms

(* Hull of two ranges whose bounds differ by constants. *)
let range_hull r1 r2 =
  let pick_lo =
    match Linexp.diff r1.Scev.lo r2.Scev.lo with
    | Some d -> Some (if d <= 0 then r1.Scev.lo else r2.Scev.lo)
    | None -> None
  in
  let pick_hi =
    match Linexp.diff r1.Scev.hi r2.Scev.hi with
    | Some d -> Some (if d >= 0 then r1.Scev.hi else r2.Scev.hi)
    | None -> None
  in
  match pick_lo, pick_hi with
  | Some lo, Some hi -> Some { Scev.lo; hi }
  | _ -> None

(* Merge two intersection checks whose bounds' term lists agree, in the
   given operand order or else swapped. *)
let try_merge a b =
  match a, b with
  | Depcond.Aintersect (ra, rb), Depcond.Aintersect (rx, ry) -> (
    match range_hull ra rx, range_hull rb ry with
    | Some h1, Some h2 -> Some (Depcond.Aintersect (h1, h2))
    | _ -> (
      match range_hull ra ry, range_hull rb rx with
      | Some h1, Some h2 -> Some (Depcond.Aintersect (h1, h2))
      | _ -> None))
  | _ -> None

(* The merge-compatibility class of an intersection check: its four
   bounds' term lists, the lesser of the two operand orders.  A merge
   keeps its first operand's term lists, so it stays in the class. *)
let merge_key (a : Scev.range) (b : Scev.range) =
  let t (r : Scev.range) = (Linexp.terms r.Scev.lo, Linexp.terms r.Scev.hi) in
  min (t a, t b) (t b, t a)

(* Condition coalescing: replace intersection checks with a single
   over-approximating check when their sides can be hulled.  The result
   is cheaper but may fail when the originals would pass, so this runs
   after redundant-condition elimination (paper SIV-A).  Each class of
   mergeable checks folds, left to right, into its first member's
   place. *)
let coalesce atoms =
  let atoms = Array.of_list atoms in
  let first = Hashtbl.create 16 in
  let absorbed = Array.make (Array.length atoms) false in
  Array.iteri
    (fun k atom ->
      match atom with
      | Depcond.Apred _ -> ()
      | Depcond.Aintersect (a, b) -> (
        let c = merge_key a b in
        match Hashtbl.find_opt first c with
        | None -> Hashtbl.add first c k
        | Some j ->
          atoms.(j) <- Option.get (try_merge atoms.(j) atom);
          absorbed.(k) <- true))
    atoms;
  List.filteri (fun k _ -> not absorbed.(k)) (Array.to_list atoms)

(* Condition promotion: rewrite each intersection check so that it no
   longer depends on the iteration of the given loops (typically the
   loops enclosing the versioned region), allowing LICM to hoist the
   check.  Promotion widens ranges using trip counts, so a promoted
   check can fail where the original passed; checks that cannot be
   promoted are kept as they are. *)
(* Best-effort promotion: for each intersection check, widen it out of
   the deepest prefix of the enclosing loops (innermost first) for which
   all induction variables are affine with known extents.  Promoting out
   of even one loop lets LICM hoist and amortize the check. *)
(* Remark anchor for condition work: the function and the innermost
   enclosing loop (what promotion widens out of). *)
let cond_anchor scev ~(enclosing : Ir.loop_id list) =
  Tr.anchor
    ?loop:(match enclosing with l :: _ -> Some l | [] -> None)
    scev.Scev.func.Ir.fname

let promote_best_effort scev ~(enclosing : Ir.loop_id list) atoms =
  let f = scev.Scev.func in
  let rec take n l =
    match l with x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []
  in
  (* try promoting out of all enclosing loops first, then progressively
     fewer (always including the innermost) *)
  let n_enc = List.length enclosing in
  let candidates = List.init n_enc (fun i -> take (n_enc - i) enclosing) in
  List.map
    (fun atom ->
      match atom with
      | Depcond.Apred _ -> atom
      | Depcond.Aintersect (r1, r2) ->
        let range_eq a b =
          Linexp.equal a.Scev.lo b.Scev.lo && Linexp.equal a.Scev.hi b.Scev.hi
        in
        let same_object a b =
          (* both ranges based on the same pointer argument: intra-object
             checks, which imprecise promotion must not widen
             one-sidedly (paper SIV-A) *)
          List.exists
            (fun v ->
              (match (Ir.inst f v).Ir.kind with Ir.Arg _ -> true | _ -> false)
              && Linexp.mentions b.Scev.lo v)
            (Linexp.values a.Scev.lo)
        in
        let try_with loops =
          let out_of l = List.mem l loops in
          match
            ( Scev.promote_range scev ~out_of r1,
              Scev.promote_range scev ~out_of r2 )
          with
          | Some p1, Some p2 ->
            (* imprecise promotion is only applied to checks involving
               different memory objects (paper SIV-A): widening an
               intra-object check usually makes it always fail (e.g.
               s131's symbolic distance, floyd-warshall's in-row read);
               also reject results that statically always overlap *)
            if same_object r1 r2 && not (range_eq p1 r1 && range_eq p2 r2)
            then None
            else if Alias.relate f p1 p2 = Alias.Overlap then None
            else Some (Depcond.Aintersect (p1, p2))
          | _ -> None
        in
        let rec first = function
          | [] -> None
          | loops :: rest -> (
            match try_with loops with Some a -> Some a | None -> first rest)
        in
        (match first candidates with
        | None ->
          Tm.incr "condopt.promote_failed";
          Tr.remark (cond_anchor scev ~enclosing) Tr.Promotion_failed;
          atom
        | Some promoted ->
          (* unchanged ranges mean the check was already invariant in
             every promoted loop: precise promotion (no widening) *)
          let precise = promoted = atom in
          if precise then Tm.incr "condopt.promoted_precise"
          else Tm.incr "condopt.promoted_imprecise";
          Tr.remark (cond_anchor scev ~enclosing) (Tr.Cond_promoted { precise });
          promoted))
    atoms

type config = {
  redundant_elim : bool;
  coalescing : bool;
  promotion : bool;
}

let default_config = { redundant_elim = true; coalescing = true; promotion = false }

let none_config = { redundant_elim = false; coalescing = false; promotion = false }

(* Optimize a whole plan tree. *)
let rec optimize_plan ?(config = default_config) scev ~enclosing (p : Plan.t) :
    Plan.t =
  let atoms = p.Plan.p_conds in
  let atoms =
    if config.redundant_elim then begin
      let kept = eliminate_redundant atoms in
      Tm.incr ~by:(List.length atoms - List.length kept) "condopt.eliminated";
      kept
    end
    else atoms
  in
  let atoms =
    if config.coalescing then begin
      let merged = coalesce atoms in
      Tm.incr ~by:(List.length atoms - List.length merged) "condopt.coalesced";
      merged
    end
    else atoms
  in
  let atoms =
    if config.promotion then promote_best_effort scev ~enclosing atoms
    else atoms
  in
  {
    p with
    Plan.p_conds = atoms;
    p_secondaries =
      List.map (optimize_plan ~config scev ~enclosing) p.Plan.p_secondaries;
  }
