(** A work-stealing domain pool for embarrassingly parallel maps, built
    on OCaml 5 [Domain]/[Mutex] only (no external dependencies).

    [map ~jobs f xs] evaluates [f] over [xs] on [jobs] worker domains
    and returns the results in input order.  Each worker owns a
    contiguous slice of the index range and pops tasks from its front;
    an idle worker steals from the back of another worker's slice, so
    uneven task costs balance without a central queue bottleneck.

    Guarantees:

    - {b Deterministic ordering}: results (and captured exceptions) are
      reported by input index, never by completion order.
    - {b Exception isolation}: a task that raises does not kill the
      run; every task still executes.  {!try_map} reports per-task
      [result]s; {!map} re-raises the lowest-index exception after all
      tasks have finished — the same exception a sequential
      left-to-right run would have surfaced first.
    - {b Observability}: at [jobs > 1] each task runs under
      {!Obs.isolated}, and at the join the tasks' shards merge into the
      caller's context in input order ({!Obs.merge}), failing tasks
      included; at [~jobs:1] tasks record straight into the caller.
      Counters, remarks and span nesting are the same at any job count,
      so a [Telemetry.capture] around a [map] sees every counter the
      tasks bumped.  A timer's total is the sum over tasks.
    - {b No nesting}: calling [map]/[try_map] from inside a pool task
      raises {!Nested_map} at any job count (also at [~jobs:1], so a
      sequential run cannot silently accept a structure that would
      deadlock resources in a parallel one).  Parallelize at one level
      and keep the work below it pure.

    Tasks must not mutate state shared with other tasks; per-task and
    per-[Ir.func] state is fine.  See CONTRIBUTING.md "Concurrency
    rules". *)

exception Nested_map
(** Raised by {!map}/{!try_map} when called from inside a pool task. *)

val default_jobs : unit -> int
(** The [POOL_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()].  Entry points use
    this as the default for their [--jobs] flag. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated on [jobs] domains
    (clamped to [max 1 (min jobs (length xs))]; [~jobs:1] runs inline
    on the calling domain, spawning nothing).  If any task raised, the
    lowest-index exception is re-raised after all tasks finish. *)

val try_map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but per-task exceptions are captured in place, so one
    failed task reports while its siblings' results survive. *)
