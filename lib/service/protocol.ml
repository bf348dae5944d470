(* The compile-service wire protocol (DESIGN §15): newline-delimited
   JSON over stdin/stdout or a Unix socket.  One line is either

   - a compile request (a JSON object with a "source" member),
   - a batch of compile requests (a JSON array of such objects), or
   - a control operation
     ({"op": "ping" | "stats" | "metrics" | "shutdown"}; metrics takes
     an optional "format": "json" | "text").

   A request line yields one response line; a batch line yields one
   JSON-array line of responses in request order.  Responses carry {b
   no} cache metadata and no timestamps: a response served from the
   artifact cache is byte-identical to one compiled fresh — that is the
   service's determinism contract, and what lets clients diff responses
   across runs.  Cache effectiveness is observable out-of-band via
   {"op": "stats"} and the service.* telemetry counters. *)

module J = Fgv_support.Json
module Version = Fgv_support.Version

let protocol_version = Version.service_protocol

(* ------------------------------------------------------------ requests *)

(* Everything that can change the artifact is an explicit field here and
   participates in the cache key (see {!Cache.unit_key}); [rq_id] is echo-only
   client correlation and deliberately does not. *)
type request = {
  rq_id : string;  (** echoed verbatim in the response; "" when absent *)
  rq_source : string;  (** mini-C kernel text *)
  rq_pipeline : string;  (** a {!Fgv_passes.Pipelines.registry} name, or "none" *)
  rq_no_restrict : bool;  (** compile ignoring [restrict] qualifiers *)
  rq_emit_c : bool;  (** include the checked-mode C lowering *)
  rq_heap : int;  (** heap cells baked into the emitted C memory image *)
}

let default_heap = 1024

(* The memory image baked into emitted C: cell [i] holds the float
   [i mod 7].  [fgvc]'s [--emit-c], [--run] and [--run-native] start
   from the same image, so the driver's C equals the service's. *)
let heap_image cells =
  Array.init cells (fun i -> Fgv_pssa.Value.VFloat (Float.of_int (i mod 7)))

(* A lowered kernel's checked-mode C over [heap_image heap]: the
   service's [emit_c] artifact, and what [fgvc --emit-c] writes. *)
let checked_c ~heap prog = Fgv_backend.Emit.checked prog ~mem:(heap_image heap)

let decode_request (j : J.t) : (request, string) result =
  match j with
  | J.Assoc _ -> (
    match J.string_member "source" j with
    | None -> Error "request needs a string \"source\" member"
    | Some source -> (
      let str key default = J.string_member ~default key j in
      let boolean key = J.bool_member ~default:false key j in
      let int_ key default = J.int_member ~default key j in
      match (str "id" "", str "pipeline" "none", boolean "no_restrict",
             boolean "emit_c", int_ "heap" default_heap)
      with
      | Some id, Some pipeline, Some no_restrict, Some emit_c, Some heap ->
        if heap < 1 || heap > 1 lsl 24 then
          Error "\"heap\" must be a positive cell count"
        else
          Ok
            {
              rq_id = id;
              rq_source = source;
              rq_pipeline = pipeline;
              rq_no_restrict = no_restrict;
              rq_emit_c = emit_c;
              rq_heap = heap;
            }
      | _ -> Error "request member has the wrong type"))
  | _ -> Error "request must be a JSON object"

let encode_request (r : request) : J.t =
  J.Assoc
    ((if r.rq_id = "" then [] else [ ("id", J.String r.rq_id) ])
    @ [
        ("source", J.String r.rq_source);
        ("pipeline", J.String r.rq_pipeline);
        ("no_restrict", J.Bool r.rq_no_restrict);
        ("emit_c", J.Bool r.rq_emit_c);
        ("heap", J.Int r.rq_heap);
      ])

(* ----------------------------------------------------------- artifacts *)

(* What a compile produces, and what the cache stores, in the form it is
   sent.  Its members are encoded once, right after the compile,
   minified and without the enclosing braces, in this order:

   - "function": the kernel name;
   - "ir": the printed optimized PSSA;
   - "remarks": the optimization-remark stream the compile emitted, as
     the same flat objects [--remarks=json] prints;
   - "c": the checked-mode C, only when requested;
   - "counters": the per-compile telemetry counter snapshot, recorded in
     an isolated observability context, so it is a pure function of the
     request.

   Beside those bytes the artifact keeps only what access records read:
   the kernel name and how many remarks and counters the bytes hold.
   Every member is deterministic — no wall-clock anywhere — and every
   reply splices the stored bytes, so a cached reply is byte-identical
   to a fresh one by construction. *)
type artifact = {
  ar_func : string;  (** kernel name, anchors the service's remarks *)
  ar_wire : string;  (** the members, minified, in the order above *)
  ar_remark_count : int;
  ar_counter_count : int;
}

(* The artifact's wire encoder, the one place its members are written:
   in the worker, once per compile. *)
let encode_artifact ~func ~ir ~(remarks : J.t list) ~(c : string option)
    ~(counters : (string * int) list) : artifact =
  let buf =
    Buffer.create
      (String.length ir + Option.fold ~none:0 ~some:String.length c + 4096)
  in
  let quoted prefix s =
    Buffer.add_string buf prefix;
    J.add_quoted buf s
  in
  quoted {|"function":|} func;
  quoted {|,"ir":|} ir;
  Buffer.add_string buf {|,"remarks":|};
  J.to_buffer ~minify:true buf (J.List remarks);
  Option.iter (quoted {|,"c":|}) c;
  Buffer.add_string buf {|,"counters":{|};
  List.iteri
    (fun i (k, v) ->
      quoted (if i = 0 then "" else ",") k;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int v))
    counters;
  Buffer.add_char buf '}';
  {
    ar_func = func;
    ar_wire = Buffer.contents buf;
    ar_remark_count = List.length remarks;
    ar_counter_count = List.length counters;
  }

(* A multi-kernel source compiles each kernel as its own cacheable unit
   and answers with [Compiled_many] in source order; a single-kernel
   source keeps the historical flat encoding, so protocol 2 clients are
   byte-compatible until they send a batched translation unit. *)
type response =
  | Compiled of { id : string; artifact : artifact }
  | Compiled_many of { id : string; artifacts : artifact list }
  | Failed of { id : string; error : string }

(* One response's wire line, without its newline, appended to [buf]:
   "{", the escaped "id" unless it is empty, "ok", then the error, the
   one artifact's members, or "functions" with each artifact's members
   in braces, and "}".  A compiled reply encodes only its id; the rest
   is spliced from the artifacts. *)
let write_response (buf : Buffer.t) (r : response) : unit =
  let id =
    match r with
    | Compiled { id; _ } | Compiled_many { id; _ } | Failed { id; _ } -> id
  in
  Buffer.add_char buf '{';
  if id <> "" then begin
    Buffer.add_string buf {|"id":|};
    J.add_quoted buf id;
    Buffer.add_char buf ','
  end;
  (match r with
  | Failed { error; _ } ->
    Buffer.add_string buf {|"ok":false,"error":|};
    J.add_quoted buf error
  | Compiled { artifact; _ } ->
    Buffer.add_string buf {|"ok":true,|};
    Buffer.add_string buf artifact.ar_wire
  | Compiled_many { artifacts; _ } ->
    Buffer.add_string buf {|"ok":true,"functions":[|};
    List.iteri
      (fun i a ->
        Buffer.add_string buf (if i = 0 then "{" else ",{");
        Buffer.add_string buf a.ar_wire;
        Buffer.add_char buf '}')
      artifacts;
    Buffer.add_char buf ']');
  Buffer.add_char buf '}'

(* A batch's responses, in request order, as one JSON array. *)
let write_batch (buf : Buffer.t) (rs : response list) : unit =
  Buffer.add_char buf '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      write_response buf r)
    rs;
  Buffer.add_char buf ']'

let response_line (r : response) : string =
  let buf = Buffer.create 1024 in
  write_response buf r;
  Buffer.contents buf

(* ------------------------------------------------------------- control *)

(* The metrics snapshot is served as JSON by default; "text" asks for a
   Prometheus-style exposition (DESIGN §16) carried in the reply's
   "body" member, so the wire framing stays one JSON line either way. *)
type metrics_format = Mjson | Mtext

type control =
  | Cping
  | Cstats
  | Cmetrics of metrics_format
  | Cshutdown

let control_name = function
  | Cping -> "ping"
  | Cstats -> "stats"
  | Cmetrics _ -> "metrics"
  | Cshutdown -> "shutdown"

type line =
  | Single of request
  | Batch of request list
  | Control of control
  | Malformed of string

(* Classify one wire line.  A batch with a malformed element is rejected
   whole: answering k of n requests while silently dropping the rest
   would desynchronize the client's correlation by position. *)
let decode_line (text : string) : line =
  match J.of_string text with
  | Error e -> Malformed ("bad JSON: " ^ e)
  | Ok (J.List items) -> (
    let rec decode acc = function
      | [] -> Batch (List.rev acc)
      | item :: rest -> (
        match decode_request item with
        | Ok r -> decode (r :: acc) rest
        | Error e ->
          Malformed
            (Printf.sprintf "batch element %d: %s" (List.length acc) e))
    in
    match items with
    | [] -> Malformed "empty batch"
    | items -> decode [] items)
  | Ok j -> (
    match J.string_member "op" j with
    | Some "ping" -> Control Cping
    | Some "stats" -> Control Cstats
    | Some "metrics" -> (
      match J.string_member ~default:"json" "format" j with
      | Some "json" -> Control (Cmetrics Mjson)
      | Some "text" -> Control (Cmetrics Mtext)
      | Some f -> Malformed ("unknown metrics format " ^ f)
      | None -> Malformed "\"format\" must be a string")
    | Some "shutdown" -> Control Cshutdown
    | Some op -> Malformed ("unknown op " ^ op)
    | None -> (
      match decode_request j with
      | Ok r -> Single r
      | Error e -> Malformed e))
