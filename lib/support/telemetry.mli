(** Framework telemetry: named counters and wall-clock timers.

    Counters and timers live in the calling domain's observability
    context ({!Obs}): passes and the versioning framework bump counters
    unconditionally (an increment is a hashtable update, cheap next to
    any analysis it instruments), and entry points decide whether to
    report.  Sessions that need isolated numbers (the benchmark harness,
    golden tests) call {!reset} between runs, or use {!capture} to
    measure the counter delta of one thunk.

    Recording never takes a lock.  {!Pool} isolates each task of a
    parallel map and merges the tasks' shards into the caller at the
    join ({!Obs.merge}), so a {!capture} around a [Pool.map] observes
    every counter the tasks bumped, at any job count. *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at zero. *)

val set_max : string -> int -> unit
(** Raise the named counter to [v] if it is currently lower (running
    maxima, e.g. recursion depths).  The counter's base name must start
    with ["max_"]: shard merges combine such counters by maximum rather
    than by sum, so parallel runs report the same value as sequential
    ones. *)

val get : string -> int
(** Current value (0 if never bumped). *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Timers} *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock duration (and an
    invocation count) into the named timer.  Re-raises exceptions but
    still records the elapsed time. *)

val timer_total : string -> float
(** Accumulated seconds (0. if never run). *)

val timers : unit -> (string * float * int) list
(** All timers as (name, total seconds, invocations), sorted by name. *)

(** {1 Snapshots} *)

val reset : unit -> unit
(** Drop every counter and timer: the next session starts empty. *)

val snapshot : unit -> Json.t
(** Every counter and timer as [{"counters": {...}, "timers": {...}}],
    keys sorted; timers as [{"total_s": float, "count": int,
    "histogram": {...}}] — the histogram member is {!Histogram.to_json}
    of every duration the timer recorded, so [--stats=json] consumers
    get latency distributions for each [*.time] key without extra
    instrumentation. *)

val capture : (unit -> 'a) -> 'a * (string * int) list
(** Run the thunk and return the counter *delta* it caused (counters
    whose value changed, sorted by name).  Does not reset anything;
    nesting captures is fine. *)

val report : unit -> string
(** Human-readable table of counters and timers (for [--stats]). *)
