(* Linear integer expressions over SSA values:  Σ coeff_i * v_i + konst.

   Used to represent memory addresses and range bounds symbolically.  Two
   addresses whose difference reduces to a constant can be disambiguated
   statically; everything else becomes a run-time intersection check. *)

open Fgv_pssa

type t = { terms : (Ir.value_id * int) list; konst : int }
(* terms sorted by value id, no zero coefficients; every constructor
   below keeps this invariant, which is what lets [add]/[sub] merge and
   [diff] compare without re-normalizing *)

(* The normalizing reference: sums repeated ids, drops cancelled terms
   and sorts.  Only [make] pays for it; the arithmetic below works on
   already-normalized lists. *)
let norm terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, k) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (cur + k))
    terms;
  Hashtbl.fold (fun v k acc -> if k = 0 then acc else (v, k) :: acc) tbl []
  |> List.sort compare

let make terms konst = { terms = norm terms; konst }
let const k = { terms = []; konst = k }
let of_value v = { terms = [ (v, 1) ]; konst = 0 }
let is_const e = e.terms = []

(* [merge sign xs ys] is the normalized form of xs + sign * ys, for sign
   1 or -1: one linear walk over the two sorted lists, summing shared
   ids and dropping the sums that cancel (with wrap-around, as [norm]
   would).  A negated nonzero coefficient is never zero, so one-sided
   terms need no check. *)
let rec merge sign xs ys =
  match xs, ys with
  | _, [] -> xs
  | [], _ when sign = 1 -> ys
  | [], (w, b) :: ys' -> (w, -b) :: merge sign [] ys'
  | (v, a) :: xs', (w, b) :: ys' ->
    if v < w then (v, a) :: merge sign xs' ys
    else if w < v then (w, sign * b) :: merge sign xs ys'
    else
      let k = a + (sign * b) in
      if k = 0 then merge sign xs' ys' else (v, k) :: merge sign xs' ys'

let add a b = { terms = merge 1 a.terms b.terms; konst = a.konst + b.konst }

(* A product that wraps to zero is dropped like any cancelled term. *)
let scale k e =
  if k = 0 then const 0
  else
    {
      terms =
        List.filter_map
          (fun (v, c) -> if c * k = 0 then None else Some (v, c * k))
          e.terms;
      konst = e.konst * k;
    }

let sub a b = { terms = merge (-1) a.terms b.terms; konst = a.konst - b.konst }
let add_const k e = { e with konst = e.konst + k }
let equal a b = a.terms = b.terms && a.konst = b.konst

(* [diff a b] is [Some k] when a - b is the constant k: with both term
   lists normalized, exactly when they are equal, which this walk checks
   without building a - b. *)
let diff a b =
  let rec same xs ys =
    match xs, ys with
    | [], [] -> true
    | (v, c) :: xs', (w, d) :: ys' -> v = w && c = d && same xs' ys'
    | _ -> false
  in
  if same a.terms b.terms then Some (a.konst - b.konst) else None

let terms e = e.terms
let constant e = e.konst

(* Substitute a value with a linear expression. *)
let subst v e repl =
  match List.assoc_opt v e.terms with
  | None -> e
  | Some k ->
    let rest = List.filter (fun (w, _) -> w <> v) e.terms in
    add { terms = rest; konst = e.konst } (scale k repl)

let mentions e v = List.mem_assoc v e.terms

let values e = List.map fst e.terms

let to_string name e =
  let parts =
    List.map
      (fun (v, k) ->
        if k = 1 then name v
        else if k = -1 then "-" ^ name v
        else Printf.sprintf "%d*%s" k (name v))
      e.terms
  in
  let parts = if e.konst <> 0 || parts = [] then parts @ [ string_of_int e.konst ] else parts in
  String.concat " + " parts
