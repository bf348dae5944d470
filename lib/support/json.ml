(* The shared hand-rolled JSON emitter (no dependency): the only subtle
   parts are string escaping and float formatting, both below. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* Whether none of the 8 bytes of [s] at [i] needs an escape, by the
   word-at-a-time tests for a byte below 0x20, equal to '"' or equal to
   '\\': each sets the high bit of some byte exactly when such a byte is
   there. *)
let plain8 s i =
  let open Int64 in
  let w = String.get_int64_le s i in
  let ones = 0x0101010101010101L in
  let q = logxor w 0x2222222222222222L in
  let b = logxor w 0x5c5c5c5c5c5c5c5cL in
  let control = logand (sub w 0x2020202020202020L) (lognot w) in
  let quote = logand (sub q ones) (lognot q) in
  let backslash = logand (sub b ones) (lognot b) in
  equal 0L
    (logand 0x8080808080808080L (logor control (logor quote backslash)))

(* Append [s] as a quoted string literal: plain bytes are skipped a word
   at a time, and each run of them is copied with one
   [Buffer.add_substring]. *)
let add_quoted buf s =
  let n = String.length s in
  Buffer.add_char buf '"';
  let start = ref 0 and i = ref 0 in
  while !i < n do
    if !i + 8 <= n && plain8 s !i then i := !i + 8
    else begin
      let stop = if !i + 8 < n then !i + 8 else n in
      while !i < stop do
        (match String.unsafe_get s !i with
        | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s !start (!i - !start);
          Buffer.add_char buf '\\';
          (match c with
          | '"' | '\\' -> Buffer.add_char buf c
          | '\n' -> Buffer.add_char buf 'n'
          | '\r' -> Buffer.add_char buf 'r'
          | '\t' -> Buffer.add_char buf 't'
          | c ->
            Buffer.add_string buf "u00";
            Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
            Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
          start := !i + 1
        | _ -> ());
        incr i
      done
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* [string_of_int n], appended without the intermediate string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* JSON has no NaN/Infinity; also "%.17g" can print "1e+3" style
   exponents, which are fine, but never a leading '.' or trailing '.'
   without digits — normalize "1." to "1.0". *)
let float_repr x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" x

let rec emit minify buf depth j =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> add_int buf n
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    emit_items minify buf (depth + 1) items;
    newline minify buf depth;
    Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
    Buffer.add_char buf '{';
    emit_fields minify buf (depth + 1) fields;
    newline minify buf depth;
    Buffer.add_char buf '}'

(* Pretty-printed, a newline and two spaces per level; minified,
   nothing. *)
and newline minify buf depth =
  if not minify then begin
    Buffer.add_char buf '\n';
    for _ = 1 to depth do
      Buffer.add_string buf "  "
    done
  end

and emit_items minify buf depth = function
  | [] -> ()
  | item :: rest ->
    newline minify buf depth;
    emit minify buf depth item;
    if not (List.is_empty rest) then Buffer.add_char buf ',';
    emit_items minify buf depth rest

and emit_fields minify buf depth = function
  | [] -> ()
  | (key, v) :: rest ->
    newline minify buf depth;
    add_quoted buf key;
    Buffer.add_string buf (if minify then ":" else ": ");
    emit minify buf depth v;
    if not (List.is_empty rest) then Buffer.add_char buf ',';
    emit_fields minify buf depth rest

let to_buffer ?(minify = false) buf (j : t) : unit = emit minify buf 0 j

let to_string ?minify (j : t) : string =
  let buf = Buffer.create 256 in
  to_buffer ?minify buf j;
  Buffer.contents buf

(* ------------------------------------------------------------- parser *)

(* A strict parser for RFC 8259 JSON — the grammar the emitter produces
   plus the full standard escape set, [\u] escapes decoded to UTF-8 —
   added for the compile-service protocol: requests arrive as
   newline-delimited JSON and must round-trip through the same [t].  Errors are positions + messages, never exceptions —
   the service answers a malformed line with an error response rather
   than dying.  The test suite's independent parser in [test/harness.ml]
   deliberately stays separate so emitter bugs cannot hide behind this
   consumer. *)
let of_string (s : string) : (t, string) result =
  let pos = ref 0 in
  let len = String.length s in
  let exception Parse of string in
  let fail msg = raise (Parse (Printf.sprintf "at %d: %s" !pos msg)) in
  (* The byte at the cursor, NUL past the end.  Only inside a string do
     the two differ (a raw NUL is a control character there), so
     [parse_string] tests for the end itself. *)
  let peek () = if !pos < len then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* Advance over plain string bytes: not a quote, a backslash or a
     control character. *)
  let rec skip_plain () =
    if !pos < len then
      match String.unsafe_get s !pos with
      | '"' | '\\' | '\000' .. '\031' -> ()
      | _ ->
        advance ();
        skip_plain ()
  in
  (* The value of the four hex digits at [i], or -1 if one of them is
     not a hex digit. *)
  let hex_at i =
    let rec go k acc =
      if k = 4 then acc
      else
        match String.unsafe_get s (i + k) with
        | '0' .. '9' as c -> go (k + 1) ((acc lsl 4) + Char.code c - 48)
        | 'a' .. 'f' as c -> go (k + 1) ((acc lsl 4) + Char.code c - 87)
        | 'A' .. 'F' as c -> go (k + 1) ((acc lsl 4) + Char.code c - 55)
        | _ -> -1
    in
    go 0 0
  in
  (* The code point of the [\u] escape whose digits start at the
     cursor, which moves past them.  A high surrogate and the low one
     escaped right after it name one code point; a surrogate without
     its partner is an error at its own digits. *)
  let code_point () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let c = hex_at !pos in
    if c < 0 then fail "bad \\u escape";
    if c < 0xd800 || c > 0xdfff then begin
      pos := !pos + 4;
      c
    end
    else begin
      let lo =
        if c < 0xdc00 && !pos + 10 <= len && s.[!pos + 4] = '\\'
           && s.[!pos + 5] = 'u'
        then hex_at (!pos + 6)
        else -1
      in
      if lo < 0xdc00 || lo > 0xdfff then fail "bad \\u escape";
      pos := !pos + 10;
      0x10000 + ((c - 0xd800) lsl 10) + (lo - 0xdc00)
    end
  in
  (* A string without escapes is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if peek () = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create 64 in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        if !pos >= len then fail "unterminated string";
        match String.unsafe_get s !pos with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'u' ->
            advance ();
            Buffer.add_utf_8_uchar buf (Uchar.unsafe_of_int (code_point ()))
          | _ -> fail "bad escape");
          go ()
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | _ ->
          let run = !pos in
          skip_plain ();
          Buffer.add_substring buf s run (!pos - run);
          go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  (* A number is the longest run of number characters, checked against
     RFC 8259's grammar: an optional minus, an integer part without
     leading zeros, then an optional fraction and exponent, each with
     at least one digit.  An integer becomes an [Int] when it fits one,
     and a [Float] otherwise. *)
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while num_char (peek ()) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let n = String.length text in
    let digits i =
      let j = ref i in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j = i then fail ("bad number " ^ text);
      !j
    in
    let i = if text.[0] = '-' then 1 else 0 in
    let j = digits i in
    if text.[i] = '0' && j > i + 1 then fail ("bad number " ^ text);
    let k = if j < n && text.[j] = '.' then digits (j + 1) else j in
    let k =
      if k < n && (text.[k] = 'e' || text.[k] = 'E') then
        let sign = k + 1 < n && (text.[k + 1] = '+' || text.[k + 1] = '-') in
        digits (if sign then k + 2 else k + 1)
      else k
    in
    if k < n then fail ("bad number " ^ text);
    match if j = n then int_of_string_opt text else None with
    | Some v -> Int v
    | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Assoc []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            fields ((key, v) :: acc)
          | '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Assoc (fields [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected a value"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

(* -------------------------------------------------- object accessors *)

(* Tiny lookup helpers for protocol decoding: total, defaulting
   accessors over [Assoc] documents. *)

let member (key : string) (j : t) : t option =
  match j with Assoc fields -> List.assoc_opt key fields | _ -> None

let string_member ?default key j =
  match member key j with
  | Some (String s) -> Some s
  | Some _ -> None
  | None -> default

let int_member ?default key j =
  match member key j with
  | Some (Int n) -> Some n
  | Some _ -> None
  | None -> default

let bool_member ?default key j =
  match member key j with
  | Some (Bool b) -> Some b
  | Some _ -> None
  | None -> default
