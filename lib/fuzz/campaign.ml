(* Fuzz-campaign driver: generate N programs, judge each with the
   multi-oracle checker, and on the first mismatch shrink the program
   and produce a machine-readable failure report.

   Per-program seeds are [base_seed + index], and everything the
   generator varies (pointer count, int arrays, restrict) is a function
   of the per-program seed alone, so a reported failure replays with
   [fgvc --fuzz 1 --seed <that seed>].

   Parallelism ([~jobs]): seeds fan out across a {!Fgv_support.Pool} of
   worker domains, but the campaign's observable output is byte-for-byte
   identical at any job count:

   - the reported failure is the one with the LOWEST index, not the
     first one found on the wall clock.  A shared lowest-failing-index
     cell lets in-flight workers skip indices above a known failure,
     while every index below it is still checked — so the minimum is
     exact, matching what a left-to-right scan stops at;
   - each program is checked under {!Fgv_support.Obs.isolated}, and
     only the shards of the sequential prefix [0 .. failing index] (all
     of them on a clean campaign) are merged back, in index order.
     Counters such as [fuzz.oracle_runs] and the remark stream therefore
     match the [--jobs 1] run exactly; work done speculatively past a
     failure is discarded;
   - shrinking runs on the calling domain after the workers join, on
     the same program a left-to-right scan would shrink. *)

module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module J = Fgv_support.Json
module Pool = Fgv_support.Pool

type failure = {
  f_seed : int;  (** per-program seed: the replay handle *)
  f_index : int;  (** position in the campaign *)
  f_mismatch : Oracle.mismatch;
  f_program : string;  (** rendered original program *)
  f_shrunk : string;  (** rendered minimal reproducer *)
  f_shrunk_stmts : int;
  f_shrink_steps : int;
  f_remarks : (Tr.anchor * Tr.remark) list;
      (** optimization remarks from re-running the failing pipeline on the
          shrunk reproducer: what the compiler *decided* on the minimal
          program that still miscompiles *)
}

type outcome = {
  c_programs : int;
  c_seed : int;
  c_pipelines : string list;
  c_native : bool;  (** was the native differential oracle enabled? *)
  c_failure : failure option;
}

(* A shrink candidate reproduces the failure when the *same pipeline*
   reports a mismatch of the *same kind* — chasing a different bug
   mid-reduction would minimize the wrong thing. *)
let same_failure (m0 : Oracle.mismatch) (m : Oracle.mismatch) =
  m.Oracle.mm_pipeline = m0.Oracle.mm_pipeline
  && m.Oracle.mm_kind = m0.Oracle.mm_kind

let shrink_failure ~native ~config (fd : Fgv_frontend.Ast.fdecl)
    (m0 : Oracle.mismatch) =
  let still_failing cand =
    match
      Oracle.check ~native ~pipelines:[ m0.Oracle.mm_pipeline ] ~config cand
    with
    | Some m -> same_failure m0 m
    | None -> false
  in
  Shrink.shrink ~still_failing fd

let mk_failure ~native ~config ~index ~pseed (fd : Fgv_frontend.Ast.fdecl)
    (m : Oracle.mismatch) : failure =
  let shrunk, steps = shrink_failure ~native ~config fd m in
  (* Re-run the failing pipeline once on the reproducer with remarks
     force-enabled: the decision sequence (cuts, checks, versioned nodes,
     pass work) is the first thing a human wants when triaging.  The
     counters and spans of this extra run are isolated away so the report
     stays a function of the campaign alone. *)
  let ((), remarks), (_ : Obs.shard) =
    Obs.isolated (fun () ->
        Obs.collect_remarks (fun () ->
            ignore
              (Oracle.check ~native ~pipelines:[ m.Oracle.mm_pipeline ]
                 ~config shrunk)))
  in
  {
    f_seed = pseed;
    f_index = index;
    f_mismatch = m;
    f_program = Generator.render fd;
    f_shrunk = Generator.render shrunk;
    f_shrunk_stmts = Shrink.stmt_count_list shrunk.Fgv_frontend.Ast.fdbody;
    f_shrink_steps = steps;
    f_remarks = remarks;
  }

(* Scan over all indices with an early-exit watermark.  A task bails
   only when its index is ABOVE the best (lowest) failing index known so
   far; the watermark only ever decreases, so every index at or below
   the final minimum is guaranteed to have run — the minimum is exact,
   not a race winner.  At one job the pool runs the tasks inline and in
   order, so the scan stops checking at the first mismatch. *)
let scan ~native ~config ~pipelines ~jobs ~n ~seed : outcome =
  let watermark = Atomic.make max_int in
  let rec lower_to i =
    let cur = Atomic.get watermark in
    if i < cur && not (Atomic.compare_and_set watermark cur i) then lower_to i
  in
  let check_one i =
    if i > Atomic.get watermark then None
    else begin
      let pseed = seed + i in
      let cfg = Generator.vary config ~seed:pseed in
      let fd = Generator.generate ~config:cfg ~seed:pseed () in
      (* only the sequential prefix's shards are merged below, in index
         order, so counters and remarks match the --jobs 1 run *)
      let verdict, shard =
        Obs.isolated (fun () -> Oracle.check ~native ~pipelines ~config:cfg fd)
      in
      (match verdict with Some _ -> lower_to i | None -> ());
      Some (verdict, shard, fd, cfg, pseed)
    end
  in
  let results = Pool.map ~jobs check_one (List.init n Fun.id) in
  let results = Array.of_list results in
  let k = Atomic.get watermark in
  let last = if k = max_int then n - 1 else k in
  for i = 0 to last do
    match results.(i) with
    | Some (_, shard, _, _, _) -> Obs.merge shard
    | None -> assert false (* i <= watermark: the task cannot have bailed *)
  done;
  let failure =
    if k = max_int then None
    else
      match results.(k) with
      | Some (Some m, _, fd, cfg, pseed) ->
        Some (mk_failure ~native ~config:cfg ~index:k ~pseed fd m)
      | _ -> assert false
  in
  {
    c_programs = last + 1;
    c_seed = seed;
    c_pipelines = pipelines;
    c_native = native;
    c_failure = failure;
  }

let run ?(native = false) ?(config = Generator.default_config)
    ?(pipelines = Fgv_passes.Pipelines.names) ?(jobs = 1) ~n ~seed () :
    outcome =
  Tm.time "fuzz.campaign" (fun () ->
      if n <= 0 then
        { c_programs = 0; c_seed = seed; c_pipelines = pipelines;
          c_native = native; c_failure = None }
      else scan ~native ~config ~pipelines ~jobs ~n ~seed)

(* ------------------------------------------------------------- report *)

let failure_json (f : failure) : J.t =
  let m = f.f_mismatch in
  J.Assoc
    [
      ("seed", J.Int f.f_seed);
      ("index", J.Int f.f_index);
      ("pipeline", J.String m.Oracle.mm_pipeline);
      ("kind", J.String m.Oracle.mm_kind);
      ( "pass",
        match m.Oracle.mm_pass with
        | Some p -> J.String p
        | None -> J.Null );
      ("binding", J.List (List.map (fun b -> J.Int b) m.Oracle.mm_binding));
      ("detail", J.String m.Oracle.mm_detail);
      ("program", J.String f.f_program);
      ("shrunk", J.String f.f_shrunk);
      ("shrunk_stmts", J.Int f.f_shrunk_stmts);
      ("shrink_steps", J.Int f.f_shrink_steps);
      ("remarks", J.List (List.map Tr.remark_json f.f_remarks));
      ( "reproduce",
        J.String
          (Printf.sprintf "fgvc --fuzz 1 --seed %d --pipeline %s" f.f_seed
             m.Oracle.mm_pipeline) );
    ]

(* Deliberately contains no [jobs] field and no timings: the report is
   a function of (n, seed, pipelines, code under test) alone, and CI
   pins that it is byte-identical across job counts. *)
let report_json (o : outcome) : J.t =
  J.Assoc
    [
      ("schema_version", J.Int Fgv_support.Version.fuzz_report_schema);
      ("tool", J.String "fgvc --fuzz");
      ("programs", J.Int o.c_programs);
      ("seed", J.Int o.c_seed);
      ("pipelines", J.List (List.map (fun p -> J.String p) o.c_pipelines));
      ("native", J.Bool o.c_native);
      ("oracle_runs", J.Int (Tm.get "fuzz.oracle_runs"));
      ("native_runs", J.Int (Tm.get "fuzz.native_runs"));
      ("mismatches", J.Int (Tm.get "fuzz.mismatches"));
      ( "failure",
        match o.c_failure with
        | None -> J.Null
        | Some f -> failure_json f );
    ]
