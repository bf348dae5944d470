(** The per-domain observability context: everything {!Telemetry} and
    {!Trace} record — counters, timers with their latency histograms,
    spans, remarks — and the domain-local remark force, behind one
    [Domain.DLS] key.

    Recording touches only the calling domain's context, so it never
    takes a lock and a single-domain program sees one process-wide
    record.  Work that must be accounted apart — a pool task, a fuzz
    check, a service compile — runs under {!isolated}, which swaps in a
    fresh context and returns what the thunk recorded as a {!shard}.
    {!merge} folds a shard into the caller's context under one rule
    (DESIGN §8):

    - counters add, except that counters whose base name starts with
      ["max_"] take the maximum;
    - timers add their totals and counts and merge their histograms;
    - spans and remarks append, in the shard's order.

    Merging shards in a fixed order therefore reproduces the sequential
    run whatever the schedule.  {!Pool} isolates every task of a
    parallel map and merges the shards in input order at the join. *)

(** {1 Remark payloads}

    The decision taxonomy {!Trace} records and re-exports (DESIGN §11).
    It lives here because the context stores it.  Every variant is a
    decision the paper's framework takes, not a counter: counters stay
    in {!Telemetry}. *)
module Remark : sig
  (** Where a decision happened: the function, optionally the loop
      (region) and the anchor instruction's printed name. *)
  type anchor = {
    a_func : string;
    a_loop : int option;
    a_value : string option;
  }

  type remark =
    | Versioned of { nodes : int; conds : int; phis : int }
        (** a plan was materialized: [nodes] cloned under [conds]
            run-time conditions, joined by [phis] versioning phis *)
    | Cut_found of { edges : int; capacity : int }
        (** the min-cut severed [edges] conditional dependence edges of
            total capacity [capacity] (Fig. 8/9) *)
    | Cut_infeasible of { flow : int }
        (** separating S from T would cut an unconditional dependence *)
    | Check_emitted of { atoms : int; cloned : int }
        (** a run-time check of [atoms] condition atoms was emitted,
            cloning [cloned] instructions of operand chain *)
    | Secondary_plan of { depth : int; plans : int }
        (** plan inference recursed (Fig. 13): [plans] plans in the
            tree, nested [depth] deep *)
    | Plan_infeasible
        (** no plan makes the requested nodes independent *)
    | Cond_eliminated of { removed : int }
        (** redundant-condition elimination dropped [removed] atoms
            (paper §IV-A) *)
    | Cond_coalesced of { merged : int }
        (** condition coalescing merged [merged] atoms into hulls *)
    | Cond_promoted of { precise : bool }
        (** a check was promoted out of enclosing loops; [precise]
            means no widening was needed *)
    | Promotion_failed
        (** no enclosing-loop prefix admitted promotion; check kept *)
    | Pass_applied of { pass : string; work : (string * int) list }
        (** a pass transformed the function; [work] names what it did *)
    | Pass_skipped of { pass : string; reason : string }
        (** a pass ran and found nothing to do *)
    | Materialize_aborted of { reason : string }
        (** a plan tree could not be materialized in the current program
            state; the transformation that wanted it gave up *)
    | Graph_sparsity of { nodes : int; edges : int; pairs_pruned : int }
        (** a region's dependence graph was built sparsely: of the
            all-pairs candidate space, [pairs_pruned] pairs were pruned
            without computing a dependence condition (DESIGN §12) *)
    | Wish_granted of { client : string; wanted : string; conds : int;
                        static : bool }
        (** a wish-spec client's candidate was granted: [static] means
            the wished independence already held (no run-time
            conditions); otherwise a plan of [conds] conditions was
            recorded *)
    | Wish_denied of { client : string; wanted : string }
        (** a wish-spec client's candidate could not be granted: the
            wished-away dependence is not versionable *)
    | Store_eliminated of { forwarded : int; killed : int }
        (** DSE resolved stores in a region: [forwarded] loads now read
            the stored value directly, [killed] dead stores were
            removed *)
    | Loop_distributed of { pieces : int; conds : int }
        (** a loop was split into [pieces] independently schedulable
            sub-loops under [conds] run-time conditions *)
    | Cache_hit of { key : string; pipeline : string }
        (** the compile service answered a request from its
            content-addressed artifact cache: [key] is the content hash
            (DESIGN §15), [pipeline] the pipeline the artifact was
            compiled with — no pass ran *)
end

(** {1 The context} *)

type timer = {
  mutable total : float;  (** seconds *)
  mutable count : int;
  hist : Histogram.t;  (** one sample per invocation *)
}

(** Span events are explicit begin/end pairs, so nesting is encoded by
    order and maps 1:1 onto Chrome's ["B"]/["E"] events. *)
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
  mutable spans : span_event list;  (** newest first *)
  mutable remarks : (Remark.anchor * Remark.remark) list;
      (** newest first *)
  mutable force_remarks : bool;
      (** record remarks here even when {!Trace.set_remarks} is off *)
}

val cur : unit -> t
(** The calling domain's context.  {!Telemetry} and {!Trace} record
    into it; other code reads it through them. *)

val create : unit -> t
(** A fresh, empty context, with remarks not forced. *)

val within : t -> (unit -> 'a) -> 'a
(** Run the thunk with the given context as the calling domain's and
    restore the caller's afterwards, also when the thunk raises.  A
    long-lived owner keeps its own ledger this way: the compile service
    runs every batch within its context, which is merged into the
    process context like a shard when the service stops. *)

val counter : t -> string -> int ref
(** The named counter's cell, created at 0. *)

val get : t -> string -> int
(** The named counter's value, 0 if it was never bumped.  Unlike
    {!counter}, reading does not create it. *)

val timer : t -> string -> timer
(** The named timer's cell, created empty. *)

val counters : t -> (string * int) list
(** Every counter, sorted by name. *)

(** {1 Shards} *)

type shard = t
(** A context that {!isolated} has detached from its domain.  Nothing
    records into it any more, so it is plain data and may cross
    domains. *)

val isolated : (unit -> 'a) -> 'a * shard
(** Run the thunk against a fresh context that inherits only the
    caller's remark force, and return what it recorded.  The caller's
    context is restored afterwards; if the thunk raises, the shard is
    discarded and the exception re-raised. *)

val merge : shard -> unit
(** Fold a shard into the calling domain's context by the rule above. *)

val collect_remarks : (unit -> 'a) -> 'a * (Remark.anchor * Remark.remark) list
(** Run the thunk with remarks forced on for this domain only and return
    the remarks it emitted, in order — how the fuzz campaign attaches
    the failing pipeline's decisions to its report and the compile
    service attaches a compile's decisions to its artifact.  Everything
    else the thunk recorded (counters, timers, spans) merges into the
    caller as if the thunk had run there, also when it raises.  The
    global {!Trace.set_remarks} flag is untouched, so concurrent pool
    workers collecting remarks never interfere. *)
