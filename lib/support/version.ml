(* The tool version and the schema version of every machine-readable
   output the fgv tool family emits, in one place: the fgvc driver
   prints them ([--version]), the bench harness stamps its JSON
   document, and the compile service folds [tool] into every cache key
   — a new compiler version must never serve artifacts cached by an
   old one (DESIGN §15). *)

let tool = "fgv 0.9"

let bench_json_schema = 8
let fuzz_report_schema = 3
let trace_schema = 1
let service_protocol = 4
let cache_schema = 2
let log_schema = 1
let metrics_schema = 1

(* What [fgvc --version] prints; consumers pin against these. *)
let banner =
  Printf.sprintf
    "%s (bench-json=%d fuzz-report=%d trace=%d service-proto=%d \
     cache-schema=%d log-schema=%d metrics-schema=%d)"
    tool bench_json_schema fuzz_report_schema trace_schema service_protocol
    cache_schema log_schema metrics_schema
