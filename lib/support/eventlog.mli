(** Structured JSON-lines event log ([fgvc --log FILE[=LEVEL]]).

    One JSON object per line, minified, flushed per event:

    {v {"event":"access","level":"info",<fields...>,"timing":{"ts_s":...,...}} v}

    Members appear in exactly that order: ["event"], ["level"], the
    caller's fields in the order given, then ["timing"] last.  Every
    event carries a ["timing"] object; the wall-clock timestamp
    ["ts_s"] (seconds since the log was opened) is added to it
    automatically, after any caller-supplied timing fields.

    Determinism contract (DESIGN §16): everything wall-clock-derived —
    durations, timestamps, rates — lives under the ["timing"] key and
    {e only} there; every other field must be a pure function of the
    input stream.  Consequently the non-[timing] projection of the log
    (each line with its ["timing"] member deleted) is byte-identical
    across runs at any [--jobs] level, and CI diffs it the same way it
    diffs fuzz reports.  No event exists {e because} of a timing
    measurement, so the contract holds for every log.

    The sink is global and [Mutex]-guarded: any domain may emit, lines
    never interleave.  The coordinator alone emits order-sensitive
    records (service access logs) so sequence numbers stay monotonic
    in the file. *)

type level = Debug | Info

val level_name : level -> string
(** ["debug"] / ["info"]. *)

val level_of_string : string -> level option

val parse_spec : string -> (string * level, string) result
(** Parse a [--log] argument [FILE[=LEVEL]] into (path, threshold);
    the level defaults to [Info].  The {e last} ['='] separates the
    suffix, and only when it names a level — so paths containing ['=']
    still work unless they end in [=debug]/[=info]; an empty suffix is
    an error. *)

val open_log : path:string -> level:level -> unit
(** Open (truncate) [path] and start logging events at or above
    [level].  Emits a ["log-open"] event recording the schema version,
    tool banner, and threshold.  Replaces any previously open log. *)

val enabled : level -> bool
(** Whether an event at this level would be written — lets callers
    skip building field lists when nobody is listening. *)

val emit : ?timing:(string * Json.t) list -> level -> string ->
  (string * Json.t) list -> unit
(** [emit level event fields] writes one line (no-op when below the
    threshold or no log is open).  [fields] must respect the
    determinism contract; anything wall-clock-derived goes in
    [?timing].  Field names ["event"], ["level"], ["timing"] are
    reserved. *)

val close : unit -> unit
(** Flush and close the sink; subsequent emits are no-ops.  Safe to
    call when nothing is open. *)
