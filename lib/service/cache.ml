(* Content-addressed artifact cache for the compile service (DESIGN
   §15), following the two exemplars the roadmap names: mandala's
   content-based versioning ("recompute only when the logic behind it
   has changed") and version_manager's fingerprint-index-eviction
   triple.

   Every entry is one kernel's artifact (DESIGN §17), kept in the wire
   form every reply splices ({!Protocol.artifact}).  Its key is a
   digest of everything that determines the artifact and nothing that
   doesn't:

   - the {e canonicalized} kernel — its own slice of the lexed token
     stream, so whitespace and comment edits (and numerically identical
     float literals) map to the same key, and an edit to one kernel of
     a translation unit leaves its siblings' keys alone;
   - the pipeline name;
   - the flags that steer compilation ([no_restrict]; [heap]
     participates only when [emit_c] does, because the heap image is
     baked into the emitted C and affects nothing else);
   - the tool version ({!Fgv_support.Version.tool}) — the compiler
     itself is the "logic behind" every artifact, so upgrading it must
     invalidate the whole cache rather than serve stale codegen.

   The request [id] is correlation metadata and deliberately absent.

   Eviction is least-recently-used with a hard entry cap
   ([--cache-max], version_manager's [max_versions]): every lookup
   stamps the entry with a monotonic tick, and inserting past the cap
   evicts the smallest stamp.  Stamps are unique, so eviction order is
   deterministic whatever the hashtable's iteration order.  An eviction
   bumps [service.cache.evictions] in the calling context, which is the
   service's own ledger.

   Failed compiles are never cached: an error response is cheap to
   recompute and a cached failure would outlive transient causes. *)

module Tm = Fgv_support.Telemetry
module Version = Fgv_support.Version
module Lexer = Fgv_frontend.Lexer

let schema_version = Version.cache_schema

(* ------------------------------------------------------ key derivation *)

let add_token buf = function
  | Lexer.TInt n -> Buffer.add_string buf (string_of_int n)
  | Lexer.TFloat x -> Printf.bprintf buf "f%Lx" (Int64.bits_of_float x)
  | Lexer.TIdent s | Lexer.TPunct s -> Buffer.add_string buf s
  | Lexer.TEOF -> Buffer.add_char buf '$'

(* A kernel's key: the MD5 of one canonical text, built in one buffer,
   whose fields are joined by NUL:

   - the tool version;
   - "unit:" and the kernel's token slice, space-joined, each token
     rendered unambiguously: floats by IEEE bits (1.0 and 1.00 collide
     on purpose; 0.1 and 0.2 never), everything else by spelling.
     Space-joining is injective because no token's rendering contains a
     space;
   - the pipeline name, "restrict" or "no-restrict", and "emit-c:HEAP"
     or "no-c".

   These bytes are the [cache-schema] 2 key format, which access
   records show: the "unit:" tag predates per-kernel keys being the only
   kind and stays. *)
let unit_key (rq : Protocol.request) (slice : Lexer.token array) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf Version.tool;
  Buffer.add_string buf "\x00unit:";
  Array.iteri
    (fun i tok ->
      if i > 0 then Buffer.add_char buf ' ';
      add_token buf tok)
    slice;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf rq.rq_pipeline;
  Buffer.add_string buf
    (if rq.rq_no_restrict then "\x00no-restrict" else "\x00restrict");
  if rq.rq_emit_c then begin
    Buffer.add_string buf "\x00emit-c:";
    Buffer.add_string buf (string_of_int rq.rq_heap)
  end
  else Buffer.add_string buf "\x00no-c";
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------ the cache *)

type slot = {
  mutable s_artifact : Protocol.artifact;
  mutable s_stamp : int;
}

type t = {
  tbl : (string, slot) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
}

let default_max = 128

let create ?(max_entries = default_max) () : t =
  {
    tbl = Hashtbl.create 64;
    max_entries = max 1 max_entries;
    tick = 0;
  }

let length (c : t) = Hashtbl.length c.tbl

let capacity (c : t) = c.max_entries

(* Lookup bumps recency; call order therefore defines the LRU order, so
   the service touches entries in request order (deterministic at any
   job count — workers never touch the cache). *)
let find (c : t) (k : string) : Protocol.artifact option =
  match Hashtbl.find_opt c.tbl k with
  | None -> None
  | Some slot ->
    c.tick <- c.tick + 1;
    slot.s_stamp <- c.tick;
    Some slot.s_artifact

let evict_lru (c : t) =
  let victim =
    Hashtbl.fold
      (fun k slot acc ->
        match acc with
        | Some (_, stamp) when stamp <= slot.s_stamp -> acc
        | _ -> Some (k, slot.s_stamp))
      c.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove c.tbl k;
    Tm.incr "service.cache.evictions"

let insert (c : t) (k : string) (a : Protocol.artifact) : unit =
  c.tick <- c.tick + 1;
  (match Hashtbl.find_opt c.tbl k with
  | Some slot ->
    slot.s_artifact <- a;
    slot.s_stamp <- c.tick
  | None -> Hashtbl.replace c.tbl k { s_artifact = a; s_stamp = c.tick });
  while Hashtbl.length c.tbl > c.max_entries do
    evict_lru c
  done
