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
