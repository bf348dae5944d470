(* See the interface for the contract.  A shard is the detached context
   itself: once [isolated] has restored the caller's context nothing
   holds the fresh one but the caller, so it needs no copy to cross
   domains, and [merge] only reads it. *)

module Remark = struct
  type anchor = {
    a_func : string;
    a_loop : int option;
    a_value : string option;
  }

  type remark =
    | Versioned of { nodes : int; conds : int; phis : int }
    | Cut_found of { edges : int; capacity : int }
    | Cut_infeasible of { flow : int }
    | Check_emitted of { atoms : int; cloned : int }
    | Secondary_plan of { depth : int; plans : int }
    | Plan_infeasible
    | Cond_eliminated of { removed : int }
    | Cond_coalesced of { merged : int }
    | Cond_promoted of { precise : bool }
    | Promotion_failed
    | Pass_applied of { pass : string; work : (string * int) list }
    | Pass_skipped of { pass : string; reason : string }
    | Materialize_aborted of { reason : string }
    | Graph_sparsity of { nodes : int; edges : int; pairs_pruned : int }
    | Wish_granted of { client : string; wanted : string; conds : int;
                        static : bool }
    | Wish_denied of { client : string; wanted : string }
    | Store_eliminated of { forwarded : int; killed : int }
    | Loop_distributed of { pieces : int; conds : int }
    | Cache_hit of { key : string; pipeline : string }
end

type timer = {
  mutable total : float;
  mutable count : int;
  hist : Histogram.t;
}

type span_event =
  | Sbegin of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      args : (string * Json.t) list;
    }
  | Send of { ts : float; tid : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  mutable spans : span_event list;
  mutable remarks : (Remark.anchor * Remark.remark) list;
  mutable force_remarks : bool;
}

type shard = t

let fresh ~force_remarks =
  {
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 16;
    spans = [];
    remarks = [];
    force_remarks;
  }

(* The initializer runs the first time a domain records anything, so a
   spawned worker starts empty and the main domain keeps its context
   for the whole process lifetime. *)
let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fresh ~force_remarks:false)

let cur () = Domain.DLS.get key

let create () = fresh ~force_remarks:false

let counter c name =
  match Hashtbl.find_opt c.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace c.counters name r;
    r

let get c name =
  match Hashtbl.find_opt c.counters name with Some r -> !r | None -> 0

let timer c name =
  match Hashtbl.find_opt c.timers name with
  | Some t -> t
  | None ->
    let t = { total = 0.0; count = 0; hist = Histogram.create () } in
    Hashtbl.replace c.timers name t;
    t

let counters c =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) c.counters []
  |> List.sort compare

(* [set_max] counters hold a maximum, not a sum: merging must take the
   larger value, or parallel runs would report inflated "maxima". *)
let is_max_counter name =
  let base =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.length base >= 4 && String.sub base 0 4 = "max_"

let merge (s : shard) =
  let c = cur () in
  Hashtbl.iter
    (fun name v ->
      let r = counter c name in
      r := if is_max_counter name then max !r !v else !r + !v)
    s.counters;
  Hashtbl.iter
    (fun name (t : timer) ->
      let into = timer c name in
      into.total <- into.total +. t.total;
      into.count <- into.count + t.count;
      Histogram.merge_into ~into:into.hist t.hist)
    s.timers;
  c.spans <- s.spans @ c.spans;
  c.remarks <- s.remarks @ c.remarks

let within c f =
  let saved = cur () in
  Domain.DLS.set key c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let isolated f =
  let c = fresh ~force_remarks:(cur ()).force_remarks in
  let v = within c f in
  (v, c)

let collect_remarks f =
  let c = fresh ~force_remarks:true in
  let v =
    Fun.protect
      ~finally:(fun () -> merge { c with remarks = [] })
      (fun () -> within c f)
  in
  (v, List.rev c.remarks)
