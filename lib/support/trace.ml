(* See the interface for the contract.  Implementation notes:

   - enablement is two process-global [Atomic.t bool]s read by every
     domain; a disabled site is one atomic load and a branch.  The
     per-compile force used by [collect_remarks] is domain-local (a
     DLS cell), never the global flag — see the note at its
     definition;
   - buffers are per-domain through [Domain.DLS], reversed lists (append
     is a cons); export reverses once;
   - span events are explicit Begin/End pairs rather than completed
     spans, so nesting is encoded by order (deterministically testable)
     and maps 1:1 onto Chrome's "B"/"E" duration events;
   - timestamps are [Unix.gettimeofday] relative to one process-wide
     epoch, in microseconds as the Chrome format wants.  They make span
     *durations* non-deterministic, which is fine: determinism is only
     promised for the remark stream, which carries no timestamps. *)

let spans_flag = Atomic.make false
let remarks_flag = Atomic.make false

let set_spans b = Atomic.set spans_flag b
let set_remarks b = Atomic.set remarks_flag b
let spans_on () = Atomic.get spans_flag
let remarks_on () = Atomic.get remarks_flag

(* [collect_remarks] force-enables remark recording for one domain
   only.  It used to toggle the process-global atomic, which raced
   under the pool: a worker finishing its collection would restore the
   flag to "off" while a sibling was mid-collect, silently truncating
   the sibling's remark stream (observed as nondeterministic remark
   counts in service batches at --jobs > 1). *)
let force_remarks_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let remarks_recording () =
  Atomic.get remarks_flag || !(Domain.DLS.get force_remarks_key)

let active () = spans_on () || remarks_on ()

let epoch = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

(* ------------------------------------------------------------ buffers *)

type anchor = {
  a_func : string;
  a_loop : int option;
  a_value : string option;
}

let anchor ?loop ?value a_func = { a_func; a_loop = loop; a_value = value }

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

type span_entry =
  | Sbegin of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      args : (string * Json.t) list;
    }
  | Send of { ts : float; tid : int }

type buf = {
  mutable spans : span_entry list; (* reversed *)
  mutable rems : (anchor * remark) list; (* reversed *)
}

let fresh_buf () = { spans = []; rems = [] }

let buf_key : buf Domain.DLS.key = Domain.DLS.new_key fresh_buf

let cur () = Domain.DLS.get buf_key

let tid () = (Domain.self () :> int)

(* -------------------------------------------------------------- spans *)

let with_span ?(cat = "fgv") ?(args = []) name f =
  if not (spans_on ()) then f ()
  else begin
    let b = cur () in
    b.spans <- Sbegin { name; cat; ts = now_us (); tid = tid (); args } :: b.spans;
    let finish () =
      (* re-fetch: an [isolated] inside the span swapped buffers *)
      let b = cur () in
      b.spans <- Send { ts = now_us (); tid = tid () } :: b.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------ remarks *)

let remark a r =
  if remarks_recording () then begin
    let b = cur () in
    b.rems <- (a, r) :: b.rems
  end

(* ------------------------------------------------------------- export *)

let span_event_json = function
  | Sbegin { name; cat; ts; tid; args } ->
    Json.Assoc
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("ph", Json.String "B");
         ("ts", Json.Float ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @ if args = [] then [] else [ ("args", Json.Assoc args) ])
  | Send { ts; tid } ->
    Json.Assoc
      [
        ("ph", Json.String "E");
        ("ts", Json.Float ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
      ]

let chrome_trace () : Json.t =
  let entries = List.rev (cur ()).spans in
  let tids =
    List.sort_uniq compare
      (List.map (function Sbegin b -> b.tid | Send e -> e.tid) entries)
  in
  let metadata =
    Json.Assoc
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Assoc [ ("name", Json.String "fgv") ]);
      ]
    :: List.map
         (fun t ->
           Json.Assoc
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int t);
               ( "args",
                 Json.Assoc
                   [ ("name", Json.String (Printf.sprintf "domain %d" t)) ] );
             ])
         tids
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ List.map span_event_json entries));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Assoc [ ("schema_version", Json.Int Version.trace_schema) ]);
    ]

let write_chrome_trace file =
  let oc = open_out file in
  output_string oc (Json.to_string (chrome_trace ()));
  output_char oc '\n';
  close_out oc

let remarks () = List.rev (cur ()).rems

let slug_and_payload :
    remark -> string * (string * Json.t) list = function
  | Versioned { nodes; conds; phis } ->
    ( "versioned",
      [ ("nodes", Json.Int nodes); ("conds", Json.Int conds);
        ("phis", Json.Int phis) ] )
  | Cut_found { edges; capacity } ->
    ("cut-found", [ ("edges", Json.Int edges); ("capacity", Json.Int capacity) ])
  | Cut_infeasible { flow } -> ("cut-infeasible", [ ("flow", Json.Int flow) ])
  | Check_emitted { atoms; cloned } ->
    ( "check-emitted",
      [ ("atoms", Json.Int atoms); ("cloned", Json.Int cloned) ] )
  | Secondary_plan { depth; plans } ->
    ( "secondary-plan",
      [ ("depth", Json.Int depth); ("plans", Json.Int plans) ] )
  | Plan_infeasible -> ("plan-infeasible", [])
  | Cond_eliminated { removed } ->
    ("cond-eliminated", [ ("removed", Json.Int removed) ])
  | Cond_coalesced { merged } ->
    ("cond-coalesced", [ ("merged", Json.Int merged) ])
  | Cond_promoted { precise } ->
    ("cond-promoted", [ ("precise", Json.Bool precise) ])
  | Promotion_failed -> ("promotion-failed", [])
  | Pass_applied { pass; work } ->
    ( "pass-applied",
      ("pass", Json.String pass)
      :: List.map (fun (k, v) -> (k, Json.Int v)) work )
  | Pass_skipped { pass; reason } ->
    ( "pass-skipped",
      [ ("pass", Json.String pass); ("reason", Json.String reason) ] )
  | Materialize_aborted { reason } ->
    ("materialize-aborted", [ ("reason", Json.String reason) ])
  | Graph_sparsity { nodes; edges; pairs_pruned } ->
    ( "graph-sparsity",
      [ ("nodes", Json.Int nodes); ("edges", Json.Int edges);
        ("pairs_pruned", Json.Int pairs_pruned) ] )
  | Wish_granted { client; wanted; conds; static } ->
    ( "wish-granted",
      [ ("client", Json.String client); ("wanted", Json.String wanted);
        ("conds", Json.Int conds); ("static", Json.Bool static) ] )
  | Wish_denied { client; wanted } ->
    ( "wish-denied",
      [ ("client", Json.String client); ("wanted", Json.String wanted) ] )
  | Store_eliminated { forwarded; killed } ->
    ( "store-eliminated",
      [ ("forwarded", Json.Int forwarded); ("killed", Json.Int killed) ] )
  | Loop_distributed { pieces; conds } ->
    ( "loop-distributed",
      [ ("pieces", Json.Int pieces); ("conds", Json.Int conds) ] )
  | Cache_hit { key; pipeline } ->
    ( "cache-hit",
      [ ("key", Json.String key); ("pipeline", Json.String pipeline) ] )

let remark_json (a, r) : Json.t =
  let slug, payload = slug_and_payload r in
  Json.Assoc
    (("remark", Json.String slug)
     :: ("function", Json.String a.a_func)
     :: (match a.a_loop with
        | Some l -> [ ("loop", Json.Int l) ]
        | None -> [])
    @ (match a.a_value with
      | Some v -> [ ("value", Json.String v) ]
      | None -> [])
    @ payload)

let remark_message = function
  | Versioned { nodes; conds; phis } ->
    Printf.sprintf
      "versioned %d node(s) under %d run-time condition(s), %d versioning \
       phi(s)"
      nodes conds phis
  | Cut_found { edges; capacity } ->
    Printf.sprintf
      "min-cut severed %d conditional dependence edge(s) (capacity %d)" edges
      capacity
  | Cut_infeasible { flow } ->
    Printf.sprintf
      "cut infeasible: separating the nodes requires severing an \
       unconditional dependence (flow %d)"
      flow
  | Check_emitted { atoms; cloned } ->
    Printf.sprintf
      "emitted run-time check of %d condition atom(s), cloning %d \
       operand-chain instruction(s)"
      atoms cloned
  | Secondary_plan { depth; plans } ->
    Printf.sprintf
      "plan inference recursed: %d plan(s) in a secondary tree of depth %d"
      plans depth
  | Plan_infeasible -> "no versioning plan makes the requested nodes independent"
  | Cond_eliminated { removed } ->
    Printf.sprintf "redundant-condition elimination removed %d atom(s)" removed
  | Cond_coalesced { merged } ->
    Printf.sprintf "condition coalescing merged %d atom(s) into hulls" merged
  | Cond_promoted { precise } ->
    if precise then "check promoted out of enclosing loops (precise: no widening)"
    else "check promoted out of enclosing loops (imprecise: ranges widened)"
  | Promotion_failed -> "condition promotion failed; check kept loop-variant"
  | Pass_applied { pass; work } ->
    Printf.sprintf "%s: %s" pass
      (if work = [] then "applied"
       else
         String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) work))
  | Pass_skipped { pass; reason } -> Printf.sprintf "%s skipped: %s" pass reason
  | Materialize_aborted { reason } ->
    Printf.sprintf "plan materialization aborted: %s" reason
  | Graph_sparsity { nodes; edges; pairs_pruned } ->
    Printf.sprintf
      "dependence graph: %d node(s), %d edge(s), %d candidate pair(s) pruned \
       without computing a condition"
      nodes edges pairs_pruned
  | Wish_granted { client; wanted; conds; static } ->
    if static then
      Printf.sprintf "%s: wish for %s already holds (no checks needed)" client
        wanted
    else
      Printf.sprintf "%s: wish for %s granted under %d run-time condition(s)"
        client wanted conds
  | Wish_denied { client; wanted } ->
    Printf.sprintf "%s: wish for %s denied (dependence not versionable)"
      client wanted
  | Store_eliminated { forwarded; killed } ->
    Printf.sprintf "forwarded %d stored value(s) to loads, killed %d dead \
                    store(s)"
      forwarded killed
  | Loop_distributed { pieces; conds } ->
    Printf.sprintf
      "loop distributed into %d sub-loop(s) under %d run-time condition(s)"
      pieces conds
  | Cache_hit { key; pipeline } ->
    Printf.sprintf "served from artifact cache (pipeline %s, key %s)" pipeline
      key

let remark_text (a, r) =
  let loc =
    a.a_func
    ^ (match a.a_loop with Some l -> Printf.sprintf ":L%d" l | None -> "")
    ^ match a.a_value with Some v -> ":" ^ v | None -> ""
  in
  Printf.sprintf "remark: %s: %s" loc (remark_message r)

let remarks_jsonl () =
  String.concat ""
    (List.map
       (fun r -> Json.to_string ~minify:true (remark_json r) ^ "\n")
       (remarks ()))

let remarks_report () =
  String.concat "" (List.map (fun r -> remark_text r ^ "\n") (remarks ()))

let reset () =
  let b = cur () in
  b.spans <- [];
  b.rems <- []

(* ------------------------------------------------------------- shards *)

type shard = {
  sh_spans : span_entry list; (* in order *)
  sh_rems : (anchor * remark) list; (* in order *)
}

let empty_shard = { sh_spans = []; sh_rems = [] }

let shard_is_empty s = s.sh_spans = [] && s.sh_rems = []

let isolated f =
  let saved = cur () in
  Domain.DLS.set buf_key (fresh_buf ());
  match f () with
  | v ->
    let b = cur () in
    let shard = { sh_spans = List.rev b.spans; sh_rems = List.rev b.rems } in
    Domain.DLS.set buf_key saved;
    (v, shard)
  | exception e ->
    Domain.DLS.set buf_key saved;
    raise e

let merge_shard s =
  if not (shard_is_empty s) then begin
    let b = cur () in
    b.spans <- List.rev_append s.sh_spans b.spans;
    b.rems <- List.rev_append s.sh_rems b.rems
  end

let collect_remarks f =
  let force = Domain.DLS.get force_remarks_key in
  let saved = !force in
  force := true;
  match isolated f with
  | v, shard ->
    force := saved;
    (* the spans stay on the caller's timeline; only remarks are taken *)
    merge_shard { shard with sh_rems = [] };
    (v, shard.sh_rems)
  | exception e ->
    force := saved;
    raise e
