(** Decision-level observability for the versioning pipeline: (1)
    hierarchical wall-clock {b spans} exported as Chrome trace-event
    JSON (loadable in Perfetto / [chrome://tracing]), and (2) a typed
    {b optimization-remark} stream — which dependence edges the min-cut
    chose, which run-time checks were emitted, when plan inference
    recursed into a secondary plan, which conditions were eliminated /
    coalesced / promoted, what each pass did — anchored to functions,
    loops, and instructions.

    Both streams are off by default and cost one atomic load per
    instrumentation site when disabled, so the compiler is instrumented
    unconditionally and entry points opt in ([fgvc --trace/--remarks],
    [bench --trace]).

    Concurrency contract (same shape as {!Telemetry}): recording writes
    only the calling domain's buffer (a [Domain.DLS] shard), never a
    lock.  {!Pool.map} captures each {e task}'s events with {!isolated}
    and replays the shards in {e input index order} at the join, so the
    remark stream is byte-identical at any [--jobs] count; span
    timestamps are wall-clock and therefore not deterministic, but their
    per-domain nesting always is. *)

(** {1 Enablement} *)

val set_spans : bool -> unit
val set_remarks : bool -> unit
val spans_on : unit -> bool
val remarks_on : unit -> bool

val active : unit -> bool
(** Either stream enabled — gate for per-task capture in {!Pool}. *)

val remarks_recording : unit -> bool
(** Remarks are being recorded {e on this domain}: either the global
    [set_remarks] flag is on, or a {!collect_remarks} is in progress
    here.  Instrumentation sites that do nontrivial work to build a
    remark should gate on this, not on {!remarks_on}. *)

(** {1 Spans} *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span (begin/end events on the calling
    domain's timeline).  [cat] groups spans in the viewer (default
    ["fgv"]); [args] attach attributes shown on click.  Spans nest;
    exceptions still close the span.  No-op when spans are disabled. *)

(** {1 Remarks} *)

(** Where a decision happened: the function, optionally the loop
    (region) and the anchor instruction's printed name. *)
type anchor = {
  a_func : string;
  a_loop : int option;
  a_value : string option;
}

val anchor : ?loop:int -> ?value:string -> string -> anchor

(** The remark taxonomy (DESIGN §11).  Every variant is a decision the
    paper's framework takes, not a counter: counters stay in
    {!Telemetry}. *)
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
      (** plan inference recursed (Fig. 13): [plans] plans in the tree,
          nested [depth] deep *)
  | Plan_infeasible
      (** no plan makes the requested nodes independent *)
  | Cond_eliminated of { removed : int }
      (** redundant-condition elimination dropped [removed] atoms
          (paper §IV-A) *)
  | Cond_coalesced of { merged : int }
      (** condition coalescing merged [merged] atoms into hulls *)
  | Cond_promoted of { precise : bool }
      (** a check was promoted out of enclosing loops; [precise] means
          no widening was needed *)
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
      (** a wish-spec client's candidate was granted: [static] means the
          wished independence already held (no run-time conditions);
          otherwise a plan of [conds] conditions was recorded *)
  | Wish_denied of { client : string; wanted : string }
      (** a wish-spec client's candidate could not be granted: the
          wished-away dependence is not versionable *)
  | Store_eliminated of { forwarded : int; killed : int }
      (** DSE resolved stores in a region: [forwarded] loads now read
          the stored value directly, [killed] dead stores were removed *)
  | Loop_distributed of { pieces : int; conds : int }
      (** a loop was split into [pieces] independently schedulable
          sub-loops under [conds] run-time conditions *)
  | Cache_hit of { key : string; pipeline : string }
      (** the compile service answered a request from its
          content-addressed artifact cache: [key] is the content hash
          (DESIGN §15), [pipeline] the pipeline the artifact was
          compiled with — no pass ran *)

val remark : anchor -> remark -> unit
(** Append to the calling domain's remark stream (no-op when remarks
    are disabled). *)

(** {1 Export} *)

val chrome_trace : unit -> Json.t
(** The calling domain's span buffer as a Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
    {"schema_version": 1}}] with ["B"]/["E"] duration events (µs
    timestamps relative to process start) and ["M"] thread-name
    metadata per domain. *)

val write_chrome_trace : string -> unit
(** [chrome_trace] serialized to a file. *)

val remarks : unit -> (anchor * remark) list
(** The calling domain's remark stream, in emission order. *)

val remark_json : anchor * remark -> Json.t
(** One remark as a flat object: [{"remark": "<slug>", "function": ...,
    "loop"?, "value"?, <payload fields>}]. *)

val remark_text : anchor * remark -> string
(** One remark as a human line, LLVM [-Rpass]-style:
    ["remark: fn:L0:v12: <message>"]. *)

val remarks_jsonl : unit -> string
(** Every remark as minified JSON, one per line (the [--remarks=json]
    stream). *)

val remarks_report : unit -> string
(** Every remark as human text, one per line (the [--remarks] stream). *)

val reset : unit -> unit
(** Drop the calling domain's span and remark buffers (enablement flags
    are untouched). *)

(** {1 Shards}

    An ordered snapshot of one task's spans and remarks; plain data,
    safe to cross domains. *)

type shard

val empty_shard : shard
val shard_is_empty : shard -> bool

val isolated : (unit -> 'a) -> 'a * shard
(** Run the thunk against a fresh, empty buffer and return everything
    it recorded; the calling domain's buffer is untouched and restored
    afterwards (also on exceptions, discarding the shard). *)

val merge_shard : shard -> unit
(** Append one shard's events to the calling domain's buffer, in the
    shard's order.  Replaying {!isolated} shards in a deterministic
    order makes the merged remark stream deterministic. *)

val collect_remarks : (unit -> 'a) -> 'a * (anchor * remark) list
(** Run the thunk with remarks force-enabled and isolated, restore the
    previous enablement, and return what it emitted — how the fuzz
    campaign attaches the failing pipeline's decisions to a failure
    report and the compile service attaches a compile's decisions to
    its artifact, without polluting the caller's remark stream.  Spans
    the thunk records are not captured: they are appended to the
    caller's buffer, in order, as if the thunk had run there.  The force
    is domain-local, so concurrent pool workers collecting remarks never
    interfere (the global {!set_remarks} flag is untouched). *)
