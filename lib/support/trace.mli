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

    Spans and remarks are recorded into the calling domain's
    observability context ({!Obs}), never under a lock.  {!Pool.map}
    isolates each {e task} and merges the shards in {e input index
    order} at the join, so the remark stream is byte-identical at any
    [--jobs] count; span timestamps are wall-clock and therefore not
    deterministic, but their per-domain nesting always is. *)

(** {1 Enablement} *)

val set_spans : bool -> unit
val set_remarks : bool -> unit
val spans_on : unit -> bool
val remarks_on : unit -> bool

val remarks_recording : unit -> bool
(** Remarks are being recorded {e on this domain}: either the global
    [set_remarks] flag is on, or an {!Obs.collect_remarks} is in
    progress here.  Instrumentation sites that do nontrivial work to
    build a remark should gate on this, not on {!remarks_on}. *)

(** {1 Spans} *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span (begin/end events on the calling
    domain's timeline).  [cat] groups spans in the viewer (default
    ["fgv"]); [args] attach attributes shown on click.  Spans nest;
    exceptions still close the span.  No-op when spans are disabled. *)

(** {1 Remarks} *)

include module type of struct include Obs.Remark end
(** The anchor and the remark taxonomy, documented in {!Obs.Remark}. *)

val anchor : ?loop:int -> ?value:string -> string -> anchor

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
