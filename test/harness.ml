(* Shared helpers for the test suites: compiling kernels, building
   memories, running both interpreters, and comparing outcomes. *)

open Fgv_pssa

(* A kernel through the one compile path with no pipeline; a source
   the path refuses raises [Failure] with its message. *)
let compile ?restrict src =
  match Fgv_frontend.Compile.source ?restrict ignore src with
  | Ok f -> f
  | Error e -> failwith (Fgv_frontend.Compile.message e)

let float_mem n f = Array.init n (fun i -> Value.VFloat (f i))

let ints xs = List.map (fun n -> Value.VInt n) xs

let float_at mem i =
  match mem.(i) with
  | Value.VFloat x -> x
  | v -> Alcotest.failf "expected float at %d, got %s" i (Value.to_string v)

(* Run a PSSA function on a *copy* of the given memory. *)
let run_pssa ?ffi f ~args ~mem = Interp.run ?ffi f ~args ~mem:(Array.copy mem)

(* Lower to CFG and run on a copy of the given memory. *)
let run_cfg ?ffi f ~args ~mem =
  let prog = Fgv_cfg.Lower.lower f in
  Fgv_cfg.Cinterp.run ?ffi prog ~args ~mem:(Array.copy mem)

let check_mem_floats msg expected (outcome : Interp.outcome) =
  List.iteri
    (fun i x ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s[%d]" msg i)
        x
        (float_at outcome.memory i))
    expected

(* A one-parameter function that loads (or, with [store], stores) through
   an undef address: the run raises {!Value.Undef_access}. *)
let build_undef_access ~store =
  let b = Builder.create ~name:"t" ~params:[ ("p", Ir.Tint) ] in
  let p = Builder.arg b 0 ~ty:Ir.Tint in
  let u = Builder.undef b Ir.Tint in
  (if store then
     let one = Builder.const_float b 1.0 in
     ignore (Builder.store b ~addr:u ~value:one)
   else
     let v = Builder.load b u ~ty:Ir.Tfloat in
     ignore (Builder.store b ~addr:p ~value:v));
  Builder.finish b

(* Compare a PSSA outcome with a CFG outcome by the differential
   contract: same final memory, same external calls in the same order. *)
let cross_equivalent (a : Interp.outcome) (b : Fgv_cfg.Cinterp.outcome) =
  Interp.(observation_diff (observe a) (Fgv_cfg.Cinterp.observe b)) = None

(* ---------------------------- a tiny independent JSON parser --------- *)

(* Parses the full JSON grammar the {!Fgv_support.Json} emitter can
   produce (objects, arrays, strings with escapes, numbers, booleans,
   null); raises [Failure] on anything malformed.  Deliberately not the
   emitter run backwards, so emitter bugs cannot hide behind a lenient
   consumer.  Shared by the telemetry, trace, and pool suites. *)
module J = Fgv_support.Json

let parse_json (s : string) : J.t =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = failwith (Printf.sprintf "JSON parse error at %d: %s" !pos msg) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > len then fail "bad \\u escape";
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          (* the emitter only escapes control characters; no surrogates *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some n -> J.Int n
    | None -> (
      match float_of_string_opt text with
      | Some x -> J.Float x
      | None -> fail ("bad number " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); J.Assoc [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        J.Assoc (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); J.List [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        J.List (items [])
      end
    | Some '"' -> J.String (parse_string ())
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some 'n' -> literal "null" J.Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* Generators for the JSON properties of the telemetry and service
   suites.  Strings over all 256 byte values, half of their bytes drawn
   from the ones the emitter escapes or treats specially, at lengths
   around its 8-byte words; and documents of every kind of value, three
   levels deep. *)
let gen_bytes =
  QCheck2.Gen.(
    string_size (int_range 0 40)
      ~gen:
        (oneof
           [
             map Char.chr (int_range 0 255);
             oneofl
               [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; ' '; '\127';
                 '\128'; '\255'; 'a' ];
           ]))

let gen_json =
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          pure J.Null;
          map (fun b -> J.Bool b) bool;
          map
            (fun n -> J.Int n)
            (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
          map
            (fun x -> J.Float x)
            (oneof
               [
                 float;
                 oneofl
                   [ nan; infinity; neg_infinity; 0.0; -0.0; 3.0; 0.1; 1e15;
                     -1e15; 1e-300; max_float ];
               ]);
          map (fun s -> J.String s) gen_bytes;
        ]
    in
    let rec doc depth =
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            map
              (fun l -> J.List l)
              (list_size (int_range 0 4) (doc (depth - 1)));
            map
              (fun l -> J.Assoc l)
              (list_size (int_range 0 4) (pair gen_bytes (doc (depth - 1))));
          ]
    in
    doc 3)

(* ------------------------------ reference implementations ---------- *)

(* The JSON emitter and parser and the kernel lexer as they were before
   they were rewritten to do each byte's work once, copied verbatim (the
   types are re-exported so values compare directly).  The rewritten
   layers must give the same bytes, values, tokens and error texts.  The
   one later change is the parser's rule for [\u] escapes and numbers
   (RFC 8259: escapes decode to UTF-8, surrogates pair, numbers have no
   leading zeros and no bare '.'), made here and in the codec together. *)

module Json_reference = struct
  type t = J.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Assoc of (string * t) list

  let escape_string s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

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

  let to_string ?(minify = false) (j : t) : string =
    let buf = Buffer.create 256 in
    let pad depth = if not minify then Buffer.add_string buf (String.make (2 * depth) ' ') in
    let nl () = if not minify then Buffer.add_char buf '\n' in
    let rec go depth j =
      match j with
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (string_of_bool b)
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float x -> Buffer.add_string buf (float_repr x)
      | String s -> Buffer.add_string buf (escape_string s)
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun k item ->
            if k > 0 then begin Buffer.add_char buf ','; nl () end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
      | Assoc [] -> Buffer.add_string buf "{}"
      | Assoc fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun k (key, v) ->
            if k > 0 then begin Buffer.add_char buf ','; nl () end;
            pad (depth + 1);
            Buffer.add_string buf (escape_string key);
            Buffer.add_string buf (if minify then ":" else ": ");
            go (depth + 1) v)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
    in
    go 0 j;
    Buffer.contents buf

  (* ------------------------------------------------------------- parser *)

  (* A strict parser for the same grammar the emitter produces (plus the
     full standard escape set), added for the compile-service protocol:
     requests arrive as newline-delimited JSON and must round-trip through
     the same [t].  Errors are positions + messages, never exceptions —
     the service answers a malformed line with an error response rather
     than dying.  The test suite's independent parser in [test/harness.ml]
     deliberately stays separate so emitter bugs cannot hide behind this
     consumer. *)
  let of_string (s : string) : (t, string) result =
    let pos = ref 0 in
    let len = String.length s in
    let exception Parse of string in
    let fail msg = raise (Parse (Printf.sprintf "at %d: %s" !pos msg)) in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
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
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > len then fail "truncated \\u escape";
            (* a \\u escape decodes to UTF-8; a high surrogate takes the
               low one escaped right after it, and a surrogate without
               its partner is an error at its own digits *)
            let hex at =
              let digits = String.sub s at 4 in
              if
                String.for_all
                  (function
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                    | _ -> false)
                  digits
              then Some (int_of_string ("0x" ^ digits))
              else None
            in
            let code =
              match hex !pos with
              | None -> fail "bad \\u escape"
              | Some hi when hi >= 0xd800 && hi <= 0xdbff -> (
                let lo =
                  if !pos + 10 <= len && String.sub s (!pos + 4) 2 = "\\u"
                  then hex (!pos + 6)
                  else None
                in
                match lo with
                | Some lo when lo >= 0xdc00 && lo <= 0xdfff ->
                  pos := !pos + 6;
                  0x10000 + ((hi - 0xd800) * 0x400) + (lo - 0xdc00)
                | _ -> fail "bad \\u escape")
              | Some lo when lo >= 0xdc00 && lo <= 0xdfff ->
                fail "bad \\u escape"
              | Some c -> c
            in
            let byte n = Buffer.add_char buf (Char.chr n) in
            if code < 0x80 then byte code
            else if code < 0x800 then begin
              byte (0xc0 lor (code lsr 6));
              byte (0x80 lor (code land 0x3f))
            end
            else if code < 0x10000 then begin
              byte (0xe0 lor (code lsr 12));
              byte (0x80 lor ((code lsr 6) land 0x3f));
              byte (0x80 lor (code land 0x3f))
            end
            else begin
              byte (0xf0 lor (code lsr 18));
              byte (0x80 lor ((code lsr 12) land 0x3f));
              byte (0x80 lor ((code lsr 6) land 0x3f));
              byte (0x80 lor (code land 0x3f))
            end;
            pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
        | Some c when Char.code c < 0x20 -> fail "raw control character in string"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?,
         an integer that does not fit an int read as a float *)
      let n = String.length text in
      let at i c = i < n && text.[i] = c in
      let is_digit i = i < n && text.[i] >= '0' && text.[i] <= '9' in
      let rec skip_digits i = if is_digit i then skip_digits (i + 1) else i in
      let some_digits i =
        if is_digit i then Some (skip_digits i) else None
      in
      let after_int =
        let i = if at 0 '-' then 1 else 0 in
        if at i '0' then Some (i + 1) else some_digits i
      in
      let after_frac =
        match after_int with
        | Some i when at i '.' -> some_digits (i + 1)
        | other -> other
      in
      let after_exp =
        match after_frac with
        | Some i when at i 'e' || at i 'E' ->
          let sign = at (i + 1) '+' || at (i + 1) '-' in
          some_digits (if sign then i + 2 else i + 1)
        | other -> other
      in
      if after_exp <> Some n then fail ("bad number " ^ text)
      else if after_int = Some n then
        match int_of_string_opt text with
        | Some v -> Int v
        | None -> Float (float_of_string text)
      else Float (float_of_string text)
    in
    let rec parse_value depth =
      if depth > 512 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
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
            | Some ',' ->
              advance ();
              fields ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Assoc (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
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
end

module Lexer_reference = struct
  type token = Fgv_frontend.Lexer.token =
    | TInt of int
    | TFloat of float
    | TIdent of string
    | TPunct of string
    | TEOF

  exception Error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  (* Two-character punctuators must be tried before one-character ones. *)
  let puncts2 = [ "=="; "!="; "<="; ">="; "&&"; "||" ]
  let puncts1 = [ "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "?"; ":"; "=";
                  "<"; ">"; "+"; "-"; "*"; "/"; "%"; "!" ]

  let tokenize (src : string) : token array =
    let n = String.length src in
    let tokens = ref [] in
    let pos = ref 0 in
    let line = ref 1 in
    let peek k = if !pos + k < n then Some src.[!pos + k] else None in
    let rec skip_ws () =
      match peek 0 with
      | Some (' ' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
      | Some '\n' ->
        incr pos;
        incr line;
        skip_ws ()
      | Some '/' when peek 1 = Some '/' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done;
        skip_ws ()
      | Some '/' when peek 1 = Some '*' ->
        pos := !pos + 2;
        let rec close () =
          if !pos + 1 >= n then fail "line %d: unterminated comment" !line
          else if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
          else begin
            if src.[!pos] = '\n' then incr line;
            incr pos;
            close ()
          end
        in
        close ();
        skip_ws ()
      | _ -> ()
    in
    let lex_number () =
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      let is_float = ref false in
      if !pos < n && src.[!pos] = '.' then begin
        is_float := true;
        incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done
      end;
      if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
        is_float := true;
        incr pos;
        if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done
      end;
      let text = String.sub src start (!pos - start) in
      if !is_float then (
        match float_of_string_opt text with
        | Some x -> TFloat x
        | None -> fail "line %d: malformed float literal" !line)
      else
        match int_of_string_opt text with
        | Some k -> TInt k
        | None -> fail "line %d: integer literal out of range" !line
    in
    let lex_ident () =
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      TIdent (String.sub src start (!pos - start))
    in
    let try_punct () =
      let starts_with s =
        !pos + String.length s <= n && String.sub src !pos (String.length s) = s
      in
      match List.find_opt starts_with puncts2 with
      | Some s ->
        pos := !pos + 2;
        Some (TPunct s)
      | None -> (
        match List.find_opt starts_with puncts1 with
        | Some s ->
          incr pos;
          Some (TPunct s)
        | None -> None)
    in
    let continue_ = ref true in
    while !continue_ do
      skip_ws ();
      if !pos >= n then continue_ := false
      else begin
        let c = src.[!pos] in
        let tok =
          if is_digit c then lex_number ()
          else if is_ident_start c then lex_ident ()
          else
            match try_punct () with
            | Some t -> t
            | None -> fail "line %d: unexpected character %c" !line c
        in
        tokens := tok :: !tokens
      end
    done;
    Array.of_list (List.rev (TEOF :: !tokens))
end

(* The compile service's reply encoder from before artifacts were kept
   in wire form, copied verbatim with the artifact record it encoded: a
   JSON tree per reply, sent as [J.to_string ~minify:true], and a batch
   as the array of its replies.  The reply writer must give the same
   bytes. *)
module Reply_reference = struct
  type artifact = {
    ar_func : string;  (** kernel name, anchors the service's remarks *)
    ar_ir : string;  (** printed optimized PSSA *)
    ar_remarks : J.t list;
    ar_c : string option;
    ar_counters : (string * int) list;
  }

  type response =
    | Compiled of { id : string; artifact : artifact }
    | Compiled_many of { id : string; artifacts : artifact list }
    | Failed of { id : string; error : string }

  let encode_artifact (a : artifact) : (string * J.t) list =
    [
      ("function", J.String a.ar_func);
      ("ir", J.String a.ar_ir);
      ("remarks", J.List a.ar_remarks);
    ]
    @ (match a.ar_c with None -> [] | Some c -> [ ("c", J.String c) ])
    @ [
        ( "counters",
          J.Assoc (List.map (fun (k, v) -> (k, J.Int v)) a.ar_counters) );
      ]

  let encode_response (r : response) : J.t =
    match r with
    | Failed { id; error } ->
      J.Assoc
        ((if id = "" then [] else [ ("id", J.String id) ])
        @ [ ("ok", J.Bool false); ("error", J.String error) ])
    | Compiled { id; artifact = a } ->
      J.Assoc
        ((if id = "" then [] else [ ("id", J.String id) ])
        @ [ ("ok", J.Bool true) ]
        @ encode_artifact a)
    | Compiled_many { id; artifacts } ->
      J.Assoc
        ((if id = "" then [] else [ ("id", J.String id) ])
        @ [
            ("ok", J.Bool true);
            ( "functions",
              J.List
                (List.map (fun a -> J.Assoc (encode_artifact a)) artifacts) );
          ])

  let response_line (r : response) : string =
    J.to_string ~minify:true (encode_response r)

  let batch_line (rs : response list) : string =
    J.to_string ~minify:true (J.List (List.map encode_response rs))
end

(* The max-flow, cut and condition-optimization code and the latency
   histogram as they were before versioning queries were sized to their
   S->T corridor, copied verbatim: Dinic over per-node arrays of edge
   records, [Cut.find] over every node discovered from S (with the
   successor lists it used to build per query), the pairwise
   redundant-condition elimination and fixpoint coalescing, and the
   histogram with one int per bucket from the start.  The rewritten
   code must give the same flows, augmenting paths, cuts, counters,
   atom lists and JSON. *)
module Maxflow_reference = struct
  type edge = {
    dst : int;
    mutable cap : int;
    rev : int;           (* index of the reverse edge in adj.(dst) *)
    original_cap : int;
    tag : int;           (* client tag, -1 for internal/reverse edges *)
  }

  type t = {
    mutable nodes : int;
    mutable adj : edge array array;   (* filled at [solve] time *)
    mutable staged : (int * int * int * int) list;  (* src, dst, cap, tag *)
    mutable frozen : bool;
    mutable augmenting : int;         (* augmenting paths found by [solve] *)
  }

  let create n =
    { nodes = n; adj = [||]; staged = []; frozen = false; augmenting = 0 }

  let add_node t =
    if t.frozen then invalid_arg "Maxflow.add_node: already solved";
    let id = t.nodes in
    t.nodes <- t.nodes + 1;
    id

  let add_edge ?(tag = -1) t ~src ~dst ~cap =
    if t.frozen then invalid_arg "Maxflow.add_edge: already solved";
    if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
    t.staged <- (src, dst, cap, tag) :: t.staged

  let freeze t =
    if not t.frozen then begin
      let counts = Array.make t.nodes 0 in
      List.iter
        (fun (s, d, _, _) ->
          counts.(s) <- counts.(s) + 1;
          counts.(d) <- counts.(d) + 1)
        t.staged;
      t.adj <-
        Array.init t.nodes (fun i ->
            Array.make counts.(i)
              { dst = -1; cap = 0; rev = -1; original_cap = 0; tag = -1 });
      let fill = Array.make t.nodes 0 in
      (* staged list is reversed insertion order; order is irrelevant *)
      List.iter
        (fun (s, d, cap, tag) ->
          let is_ = fill.(s) and id_ = fill.(d) in
          t.adj.(s).(is_) <- { dst = d; cap; rev = id_; original_cap = cap; tag };
          t.adj.(d).(id_) <- { dst = s; cap = 0; rev = is_; original_cap = 0; tag = -1 };
          fill.(s) <- is_ + 1;
          fill.(d) <- id_ + 1)
        t.staged;
      t.frozen <- true
    end

  let bfs t ~source ~sink level =
    Array.fill level 0 (Array.length level) (-1);
    let q = Queue.create () in
    level.(source) <- 0;
    Queue.add source q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Array.iter
        (fun e ->
          if e.cap > 0 && level.(e.dst) < 0 then begin
            level.(e.dst) <- level.(v) + 1;
            Queue.add e.dst q
          end)
        t.adj.(v)
    done;
    level.(sink) >= 0

  let rec dfs t ~sink level iter v pushed =
    if v = sink then pushed
    else begin
      let result = ref 0 in
      let continue = ref true in
      while !continue && iter.(v) < Array.length t.adj.(v) do
        let e = t.adj.(v).(iter.(v)) in
        if e.cap > 0 && level.(e.dst) = level.(v) + 1 then begin
          let d = dfs t ~sink level iter e.dst (min pushed e.cap) in
          if d > 0 then begin
            e.cap <- e.cap - d;
            let r = t.adj.(e.dst).(e.rev) in
            r.cap <- r.cap + d;
            result := d;
            continue := false
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !result
    end

  let solve t ~source ~sink =
    freeze t;
    let level = Array.make t.nodes (-1) in
    let flow = ref 0 in
    while bfs t ~source ~sink level do
      let iter = Array.make t.nodes 0 in
      let pushed = ref (dfs t ~sink level iter source max_int) in
      while !pushed > 0 do
        flow := !flow + !pushed;
        t.augmenting <- t.augmenting + 1;
        pushed := dfs t ~sink level iter source max_int
      done
    done;
    !flow

  let augmenting_paths t = t.augmenting

  (* Source side of the min cut: nodes reachable from the source in the
     residual graph.  Must be called after [solve].  Explicit worklist
     rather than recursion: residual reachability can chain through every
     node, and a deep graph must not overflow the stack. *)
  let source_side t ~source =
    if not t.frozen then invalid_arg "Maxflow.source_side: call solve first";
    let seen = Array.make t.nodes false in
    let stack = ref [ source ] in
    seen.(source) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        Array.iter
          (fun e ->
            if e.cap > 0 && not seen.(e.dst) then begin
              seen.(e.dst) <- true;
              stack := e.dst :: !stack
            end)
          t.adj.(v)
    done;
    seen

  (* Tags of saturated forward edges crossing the cut (source side ->
     sink side), excluding untagged edges; [side] is the [source_side]. *)
  let cut_edge_tags t ~side =
    let tags = ref [] in
    Array.iteri
      (fun v edges ->
        if side.(v) then
          Array.iter
            (fun e ->
              if e.tag >= 0 && e.original_cap > 0 && not side.(e.dst) then
                tags := e.tag :: !tags)
            edges)
      t.adj;
    List.sort_uniq compare !tags
end

module Cut_reference = struct
  open Fgv_analysis
  open Fgv_versioning
  module Ir = Fgv_pssa.Ir
  module Tm = Fgv_support.Telemetry
  module Tr = Fgv_support.Trace

  (* Remark anchor for a cut query: the region's function and loop. *)
  let cut_anchor (g : Depgraph.t) =
    let ctx = g.Depgraph.g_ctx in
    Tr.anchor
      ?loop:(match ctx.Depcond.cregion with
            | Ir.Rloop l -> Some l
            | Ir.Rtop -> None)
      ctx.Depcond.cf.Ir.fname

  let already_independent = Cut.already_independent

  (* [weight] lets profile information bias the cut toward checking
     dependencies that are unlikely to occur (paper SIII-A, last
     paragraph); the default weight 1 minimizes the number of checks. *)
  let find ?(weight = fun (_ : Depgraph.edge) -> 1) (g : Depgraph.t)
      ~(excluded : int -> bool) ~(s : int list) ~(t : int list) : Cut.result option =
    Tr.with_span ~cat:"versioning" "cut.find" @@ fun () ->
    let succ = Array.make (Array.length g.Depgraph.nodes) [] in
    Array.iter
      (fun e ->
        if not (excluded e.Depgraph.e_id) then
          succ.(e.Depgraph.e_src) <- e :: succ.(e.Depgraph.e_src))
      g.Depgraph.edges;
    let n_nodes = Array.length g.Depgraph.nodes in
    (* 1. discover the subgraph reachable from S *)
    let discovered = Array.make n_nodes false in
    let rec dfs v =
      if not discovered.(v) then begin
        discovered.(v) <- true;
        List.iter (fun e -> dfs e.Depgraph.e_dst) succ.(v)
      end
    in
    List.iter dfs s;
    Tm.incr "cut.queries";
    Tm.incr ~by:(Array.fold_left (fun a d -> if d then a + 1 else a) 0 discovered)
      "cut.graph_nodes";
    let target = Array.make n_nodes false in
    List.iter (fun k -> target.(k) <- true) t;
    let into_t v = List.exists (fun e -> target.(e.Depgraph.e_dst)) succ.(v) in
    (* T is reachable from S through at least one edge exactly when a
       discovered node has an edge into T *)
    let depends = ref false in
    Array.iteri (fun v d -> if d && into_t v then depends := true) discovered;
    if not !depends then begin
      Tm.incr "cut.already_independent";
      Some already_independent
    end
    else begin
      (* 2. build the flow network over discovered nodes; one walk of the
         edges collects those in scope (in id order) and their totals *)
      let n_uncond = ref 0 and total_weight = ref 0 in
      let edges_in_scope =
        Array.fold_right
          (fun e acc ->
            if
              (not (excluded e.Depgraph.e_id))
              && discovered.(e.Depgraph.e_src)
              && discovered.(e.Depgraph.e_dst)
            then begin
              (match e.Depgraph.e_cond with
              | None -> incr n_uncond
              | Some _ -> total_weight := !total_weight + weight e);
              e :: acc
            end
            else acc)
          g.Depgraph.edges []
      in
      let total_weight = !total_weight in
      let big = !n_uncond + total_weight + 1 in
      let in_node k = 2 * k and out_node k = (2 * k) + 1 in
      let net = Maxflow_reference.create (2 * n_nodes) in
      let source = Maxflow_reference.add_node net in
      let sink = Maxflow_reference.add_node net in
      Array.iteri
        (fun k disc ->
          if disc then
            Maxflow_reference.add_edge net ~src:(in_node k) ~dst:(out_node k) ~cap:big)
        discovered;
      List.iter
        (fun e ->
          let cap =
            match e.Depgraph.e_cond with None -> big | Some _ -> max 1 (weight e)
          in
          Maxflow_reference.add_edge ~tag:e.Depgraph.e_id net
            ~src:(out_node e.Depgraph.e_src) ~dst:(in_node e.Depgraph.e_dst) ~cap)
        edges_in_scope;
      List.iter
        (fun k ->
          if discovered.(k) then
            Maxflow_reference.add_edge net ~src:source ~dst:(out_node k) ~cap:big)
        (List.sort_uniq compare s);
      List.iter
        (fun k ->
          if discovered.(k) then
            Maxflow_reference.add_edge net ~src:(in_node k) ~dst:sink ~cap:big)
        (List.sort_uniq compare t);
      let flow = Maxflow_reference.solve net ~source ~sink in
      Tm.incr ~by:(Maxflow_reference.augmenting_paths net) "cut.maxflow_augmenting";
      (* a cut consisting solely of conditional edges costs at most
         [total_weight]; more flow means an unconditional dependence must
         be severed, so versioning is infeasible *)
      if flow > total_weight then begin
        Tm.incr "cut.infeasible";
        Tr.remark (cut_anchor g) (Tr.Cut_infeasible { flow });
        None
      end
      else begin
        (* 3. recover the cut (edge ids are dense array indices) *)
        let side = Maxflow_reference.source_side net ~source in
        let in_cut = Array.make (Array.length g.Depgraph.edges) false in
        List.iter
          (fun id -> in_cut.(id) <- true)
          (Maxflow_reference.cut_edge_tags net ~side);
        let cut_edges =
          List.filter (fun e -> in_cut.(e.Depgraph.e_id))
            (Array.to_list g.Depgraph.edges)
        in
        assert (List.for_all (fun e -> e.Depgraph.e_cond <> None) cut_edges);
        (* nodes on the source side that can reach T in the (uncut)
           dependence graph, excluding trivial self-reachability *)
        let reaches_t =
          let memo = Array.make n_nodes (-1) in
          (* -1 unknown, 0 no, 1 yes *)
          let rec reach v =
            if memo.(v) >= 0 then memo.(v) = 1
            else begin
              memo.(v) <- 0;
              let r =
                List.exists
                  (fun e -> target.(e.Depgraph.e_dst) || reach e.Depgraph.e_dst)
                  succ.(v)
              in
              if r then memo.(v) <- 1;
              r
            end
          in
          reach
        in
        let source_nodes =
          List.filter
            (fun k -> discovered.(k) && side.(out_node k) && reaches_t k)
            (List.init n_nodes (fun k -> k))
        in
        Tm.incr ~by:(List.length cut_edges) "cut.edges";
        Tr.remark (cut_anchor g)
          (Tr.Cut_found { edges = List.length cut_edges; capacity = flow });
        Some { Cut.cut_edges; source_nodes }
      end
    end
end

module Condopt_reference = struct
  open Fgv_pssa
  open Fgv_analysis

  (* Constant offset between two ranges, defined only when the lower and
     upper bounds shift by the same amount. *)
  let range_offset (r1 : Scev.range) (r2 : Scev.range) : int option =
    match Linexp.diff r1.Scev.lo r2.Scev.lo, Linexp.diff r1.Scev.hi r2.Scev.hi with
    | Some a, Some b when a = b -> Some a
    | _ -> None

  (* Two intersection checks are equivalent when both sides are shifted by
     the same constant (possibly with the operands swapped). *)
  let atoms_equivalent a b =
    match a, b with
    | Depcond.Apred p, Depcond.Apred q -> Pred.equal p q
    | Depcond.Aintersect (ra, rb), Depcond.Aintersect (rx, ry) ->
      (match range_offset rx ra, range_offset ry rb with
      | Some d1, Some d2 when d1 = d2 -> true
      | _ -> (
        match range_offset rx rb, range_offset ry ra with
        | Some d1, Some d2 when d1 = d2 -> true
        | _ -> false))
    | _ -> false

  (* Redundant condition elimination: keep one representative per
     equivalence class. *)
  let eliminate_redundant atoms =
    List.fold_left
      (fun kept atom ->
        if List.exists (atoms_equivalent atom) kept then kept else atom :: kept)
      [] atoms
    |> List.rev

  (* Hull of two ranges whose bounds differ by constants. *)
  let range_hull r1 r2 =
    let pick_lo =
      match Linexp.diff r1.Scev.lo r2.Scev.lo with
      | Some d -> Some (if d <= 0 then r1.Scev.lo else r2.Scev.lo)
      | None -> None
    in
    let pick_hi =
      match Linexp.diff r1.Scev.hi r2.Scev.hi with
      | Some d -> Some (if d >= 0 then r1.Scev.hi else r2.Scev.hi)
      | None -> None
    in
    match pick_lo, pick_hi with
    | Some lo, Some hi -> Some { Scev.lo; hi }
    | _ -> None

  (* Condition coalescing: replace two intersection checks with a single
     over-approximating check when both sides can be hulled.  The result
     is cheaper but may fail when the originals would pass, so this runs
     after redundant-condition elimination (paper SIV-A). *)
  let coalesce atoms =
    let try_merge a b =
      match a, b with
      | Depcond.Aintersect (ra, rb), Depcond.Aintersect (rx, ry) -> (
        match range_hull ra rx, range_hull rb ry with
        | Some h1, Some h2 -> Some (Depcond.Aintersect (h1, h2))
        | _ -> (
          match range_hull ra ry, range_hull rb rx with
          | Some h1, Some h2 -> Some (Depcond.Aintersect (h1, h2))
          | _ -> None))
      | _ -> None
    in
    let rec fixpoint atoms =
      let rec scan acc = function
        | [] -> None
        | atom :: rest -> (
          let merged =
            List.find_map
              (fun other ->
                match try_merge atom other with
                | Some m -> Some (other, m)
                | None -> None)
              rest
          in
          match merged with
          | Some (other, m) ->
            Some (acc @ (m :: List.filter (fun x -> x != other) rest))
          | None -> scan (acc @ [ atom ]) rest)
      in
      match scan [] atoms with Some atoms' -> fixpoint atoms' | None -> atoms
    in
    fixpoint atoms
end

module Histogram_reference = struct
  module Json = Fgv_support.Json

  let sub_buckets = 8
  let e_min = -30
  let e_max = 10
  let n_regular = (e_max - e_min) * sub_buckets
  let n_buckets = n_regular + 2 (* + underflow + overflow *)
  let overflow = n_buckets - 1

  type t = {
    counts : int array; (* length n_buckets *)
    mutable total : int;
    mutable mn : float; (* nan when empty *)
    mutable mx : float;
  }

  let create () =
    { counts = Array.make n_buckets 0; total = 0; mn = nan; mx = nan }

  let index_of v =
    if not (v > 0.0) then 0 (* ≤ 0, NaN *)
    else
      let m, e' = Float.frexp v in
      let oct = e' - 1 in
      if oct < e_min then 0
      else if oct >= e_max then overflow
      else
        let sub = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int sub_buckets) in
        let sub = if sub >= sub_buckets then sub_buckets - 1 else sub in
        1 + ((oct - e_min) * sub_buckets) + sub

  (* Inverse of [index_of] for regular buckets: exact binary bounds. *)
  let bucket_lo i =
    if i = 0 then 0.0
    else if i = overflow then Float.ldexp 1.0 e_max
    else
      let r = i - 1 in
      let oct = e_min + (r / sub_buckets) and sub = r mod sub_buckets in
      Float.ldexp (1.0 +. (float_of_int sub /. float_of_int sub_buckets)) oct

  let bucket_hi i = if i = overflow then infinity else bucket_lo (i + 1)

  let record h v =
    let i = index_of v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    (* NaN samples count but do not disturb min/max. *)
    if Float.is_nan v then ()
    else begin
      if Float.is_nan h.mn || v < h.mn then h.mn <- v;
      if Float.is_nan h.mx || v > h.mx then h.mx <- v
    end

  let count h = h.total
  let min_sample h = h.mn
  let max_sample h = h.mx

  let merge_into ~into src =
    for i = 0 to n_buckets - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    into.total <- into.total + src.total;
    if not (Float.is_nan src.mn) then
      if Float.is_nan into.mn || src.mn < into.mn then into.mn <- src.mn;
    if not (Float.is_nan src.mx) then
      if Float.is_nan into.mx || src.mx > into.mx then into.mx <- src.mx

  let quantile h q =
    if h.total = 0 then nan
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int h.total)) in
        if r < 1 then 1 else r
      in
      (* The 1st and the last order statistic are known exactly. *)
      if rank <= 1 && not (Float.is_nan h.mn) then h.mn
      else if rank >= h.total && not (Float.is_nan h.mx) then h.mx
      else begin
      let i = ref 0 and cum = ref h.counts.(0) in
      while !cum < rank do
        incr i;
        cum := !cum + h.counts.(!i)
      done;
      let i = !i in
      (* Interpolate linearly inside the bucket: the rank'th sample of
         the [counts.(i)] samples here, assuming uniform spread. *)
      let below = !cum - h.counts.(i) in
      let frac =
        float_of_int (rank - below) /. float_of_int h.counts.(i)
      in
      let lo = bucket_lo i in
      let hi = bucket_hi i in
      let v =
        if i = overflow then lo (* no finite width to spread over *)
        else lo +. (frac *. (hi -. lo))
      in
      (* Clamp to observed extremes: buckets overshoot real samples. *)
      let v = if not (Float.is_nan h.mn) && v < h.mn then h.mn else v in
      let v = if not (Float.is_nan h.mx) && v > h.mx then h.mx else v in
      v
      end
    end

  let buckets h =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then
        acc := (bucket_lo i, bucket_hi i, h.counts.(i)) :: !acc
    done;
    !acc

  let to_json h =
    let fl v : Json.t = if Float.is_nan v then Null else Float v in
    let q p = if h.total = 0 then Json.Null else fl (quantile h p) in
    Json.Assoc
      [
        ("count", Int h.total);
        ("min", fl h.mn);
        ("max", fl h.mx);
        ("p50", q 0.5);
        ("p90", q 0.9);
        ("p99", q 0.99);
        ( "buckets",
          List
            (List.map
               (fun (lo, hi, c) ->
                 Json.Assoc [ ("lo", Float lo); ("hi", Float hi); ("count", Int c) ])
               (buckets h)) );
      ]
end

(* LICM, DCE and the PSSA printer as they were before each became one
   walk, copied verbatim (DCE with its dead-nest fix): LICM re-sweeps
   the function until a sweep hoists nothing, DCE until a sweep removes
   nothing, and the printer formats every operand through [Printf].
   The rewritten passes must print the same IR, return the same counts
   and move the same counters, [pred.hashcons_*] included; the printer
   must write the same bytes. *)
module Licm_reference = struct
  open Fgv_analysis

  let run (f : Ir.func) : int =
    let hoisted = ref 0 in
    let changed = ref true in
    let scev = Scev.create f in
    let eff = Ir.effective_preds f in
    let scopes = Ir.indep_scope_index f in
    while !changed do
      changed := false;
      let order = Ir.compute_order f in
      (* hoist from [lp]'s body into the parent's item list; returns the
         rewritten parent items *)
      let rec process_items items =
        List.concat_map
          (fun item ->
            match item with
            | Ir.I _ -> [ item ]
            | Ir.L lid ->
              let lp = Ir.loop f lid in
              lp.body <- process_items lp.body;
              let loop_start = order (Ir.NL lid) in
              let defined_outside v = order (Ir.NI v) < loop_start in
              let writes =
                List.filter
                  (fun m -> Ir.may_write_inst (Ir.inst f m))
                  (Ir.memory_insts f (Ir.L lid))
              in
              let load_safe v =
                match Scev.range_of_access scev v with
                | None -> false
                | Some r ->
                  List.for_all
                    (fun w ->
                      Ir.in_indep_scope ~eff ~scopes v w
                      ||
                      match Scev.range_of_access scev w with
                      | None -> false
                      | Some rw -> Alias.relate f r rw = Alias.Disjoint)
                    writes
              in
              let hoistable v =
                let i = Ir.inst f v in
                let pure_ok =
                  match i.kind with
                  | Ir.Const _ | Ir.Arg _ | Ir.Binop _ | Ir.Cmp _ | Ir.Cast _
                  | Ir.Select _ | Ir.Splat _ | Ir.Vecbuild _ | Ir.Extract _ ->
                    true
                  | Ir.Load _ -> load_safe v
                  | Ir.Call { effect = Ir.Pure; _ } -> true
                  | _ -> false
                in
                pure_ok
                && List.for_all defined_outside (Ir.all_operands i)
                (* division can trap; keep it guarded inside the loop unless
                   the divisor is a nonzero constant *)
                && (match i.kind with
                   | Ir.Binop ((Ir.Div | Ir.Rem), _, b) -> (
                     match (Ir.inst f b).kind with
                     | Ir.Const (Ir.Cint n) -> n <> 0
                     | _ -> false)
                   | _ -> true)
              in
              let to_hoist, kept =
                List.partition
                  (fun it ->
                    match it with Ir.I v -> hoistable v | Ir.L _ -> false)
                  lp.body
              in
              if to_hoist = [] then [ item ]
              else begin
                changed := true;
                hoisted := !hoisted + List.length to_hoist;
                lp.body <- kept;
                (* hoisted code runs under the loop guard *)
                List.iter
                  (fun it ->
                    match it with
                    | Ir.I v ->
                      let i = Ir.inst f v in
                      i.ipred <- Pred.and_ lp.lpred i.ipred
                    | Ir.L _ -> ())
                  to_hoist;
                to_hoist @ [ item ]
              end)
          items
      in
      f.Ir.fbody <- process_items f.Ir.fbody
    done;
    !hoisted
end

module Dce_reference = struct
  let has_side_effect f v =
    let i = Ir.inst f v in
    match i.kind with
    | Ir.Store _ -> true
    | Ir.Call { effect = Ir.Impure; _ } -> true
    | Ir.Call { effect = Ir.Readonly; _ } -> false
    | _ -> false

  (* Drop a dead loop and every loop nested in it from the loop arena:
     a nested loop left there would keep its guard and continue literals
     counting as uses. *)
  let rec remove_nest f lid =
    List.iter
      (function Ir.L l -> remove_nest f l | Ir.I _ -> ())
      (Ir.loop f lid).body;
    Ir.remove_loop f lid

  (* Sweep number [s]; returns the number of items removed.  [users] is
     the users table of the function as [run] found it, and [gone.(v)] the
     sweep that removed [v] ([max_int] while it is in the arena): a user
     counts only if it was in the arena when this sweep began, as in a
     users table rebuilt now. *)
  let sweep (f : Ir.func) ~users ~gone s : int =
    let present u = gone.(u) >= s in
    (* values read by loop guards / continue predicates count as uses *)
    let pred_uses = Hashtbl.create 16 in
    Ir.iter_loops f (fun lp ->
        List.iter
          (fun v -> Hashtbl.replace pred_uses v ())
          (Pred.literals lp.Ir.lpred @ Pred.literals lp.Ir.cont));
    let used v =
      List.exists present (Ir.users_in users v) || Hashtbl.mem pred_uses v
    in
    let remove v =
      Ir.remove_inst f v;
      gone.(v) <- s
    in
    let removed = ref 0 in
    let rec live_loop lid =
      let lp = Ir.loop f lid in
      let defs = Ir.defined_values f (Ir.L lid) in
      let inside = Hashtbl.create 64 in
      List.iter (fun v -> Hashtbl.replace inside v ()) defs;
      let escapes =
        (* defined values used by instructions outside the loop: etas *)
        List.exists
          (fun v ->
            List.exists
              (fun u -> present u && not (Hashtbl.mem inside u))
              (Ir.users_in users v))
          defs
      in
      escapes
      || List.exists
           (fun item ->
             match item with
             | Ir.I v -> has_side_effect f v
             | Ir.L l -> live_loop l)
           lp.body
    in
    let rec clean items =
      List.filter_map
        (fun item ->
          match item with
          | Ir.I v ->
            if has_side_effect f v || used v then Some item
            else begin
              remove v;
              incr removed;
              None
            end
          | Ir.L lid ->
            if live_loop lid then begin
              let lp = Ir.loop f lid in
              lp.body <- clean lp.body;
              Some item
            end
            else begin
              List.iter remove (Ir.defined_values f item);
              remove_nest f lid;
              incr removed;
              None
            end)
        items
    in
    f.Ir.fbody <- clean f.Ir.fbody;
    !removed

  (* Sweep to a fixpoint over one users table: nothing DCE does adds a use,
     so the table built once, read through the sweep stamps, decides every
     sweep as a fresh table would. *)
  let run (f : Ir.func) : int =
    let users = Ir.users_table f in
    let gone = Array.make f.Ir.next_value max_int in
    let total = ref 0 in
    let s = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let n = sweep f ~users ~gone !s in
      total := !total + n;
      incr s;
      continue_ := n > 0
    done;
    !total
end

module Printer_reference = struct
  open Ir

  let rec string_of_const = function
    | Cint n -> string_of_int n
    | Cfloat x -> Printf.sprintf "%g" x
    | Cbool b -> string_of_bool b
    | Cundef t -> "undef:" ^ string_of_ty t

  and string_of_kind f kind =
    let v = value_name f in
    match kind with
    | Const c -> "const " ^ string_of_const c
    | Arg n ->
      let pname = try fst (List.nth f.params n) with _ -> string_of_int n in
      Printf.sprintf "arg %d (%s)" n pname
    | Binop (op, a, b) -> Printf.sprintf "%s %s, %s" (string_of_binop op) (v a) (v b)
    | Cmp (op, a, b) -> Printf.sprintf "cmp %s %s, %s" (string_of_cmpop op) (v a) (v b)
    | Cast (t, a) -> Printf.sprintf "cast %s to %s" (v a) (string_of_ty t)
    | Select { cond; if_true; if_false } ->
      Printf.sprintf "select %s, %s, %s" (v cond) (v if_true) (v if_false)
    | Phi ops ->
      let parts =
        List.map
          (fun (p, x) -> Printf.sprintf "%s: %s" (Pred.to_string v p) (v x))
          ops
      in
      "phi(" ^ String.concat ", " parts ^ ")"
    | Mu { init; recur; loop } ->
      Printf.sprintf "mu(%s, %s) @L%d" (v init) (v recur) loop
    | Eta { loop; value } -> Printf.sprintf "eta L%d %s" loop (v value)
    | Load { addr } -> Printf.sprintf "load [%s]" (v addr)
    | Store { addr; value } -> Printf.sprintf "store [%s], %s" (v addr) (v value)
    | Call { callee; args; effect } ->
      let e =
        match effect with Pure -> "pure " | Readonly -> "readonly " | Impure -> ""
      in
      Printf.sprintf "call %s%s(%s)" e callee (String.concat ", " (List.map v args))
    | Splat a -> Printf.sprintf "splat %s" (v a)
    | Vecbuild vs -> "vec(" ^ String.concat ", " (List.map v vs) ^ ")"
    | Extract (a, n) -> Printf.sprintf "extract %s, %d" (v a) n

  let string_of_inst f i =
    let v = value_name f in
    let lhs = if i.ty = Tvoid then "" else Printf.sprintf "%s = " (v i.id) in
    Printf.sprintf "%s%s ; %s" lhs (string_of_kind f i.kind)
      (Pred.to_string v i.ipred)

  let to_string f =
    let buf = Buffer.create 1024 in
    let v = value_name f in
    let indent n = String.make (2 * n) ' ' in
    let rec pp_items depth items =
      List.iter
        (fun item ->
          match item with
          | I id ->
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf (string_of_inst f (inst f id));
            Buffer.add_char buf '\n'
          | L lid ->
            let lp = loop f lid in
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf
              (Printf.sprintf "loop L%d ; %s\n" lp.lid (Pred.to_string v lp.lpred));
            List.iter
              (fun m ->
                Buffer.add_string buf (indent (depth + 1));
                Buffer.add_string buf (string_of_inst f (inst f m));
                Buffer.add_char buf '\n')
              lp.mus;
            pp_items (depth + 1) lp.body;
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf
              (Printf.sprintf "while %s\n" (Pred.to_string v lp.cont)))
        items
    in
    let params =
      String.concat ", "
        (List.map (fun (n, t) -> Printf.sprintf "%s: %s" n (string_of_ty t)) f.params)
    in
    Buffer.add_string buf (Printf.sprintf "func %s(%s) {\n" f.fname params);
    pp_items 1 f.fbody;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let print f = print_string (to_string f)
end
