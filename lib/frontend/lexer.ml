(* Hand-written lexer for the mini-C kernel language. *)

type token =
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

let tokenize (src : string) : token array =
  let n = String.length src in
  let tokens = ref [] in
  let pos = ref 0 in
  let line = ref 1 in
  (* The byte [k] past the cursor, NUL past the end: NUL starts no
     token, no comment and ends no two-byte punctuator, so it reads
     exactly like the end here. *)
  let peek k =
    if !pos + k < n then String.unsafe_get src (!pos + k) else '\000'
  in
  let rec skip_ws () =
    match peek 0 with
    | ' ' | '\t' | '\r' ->
      incr pos;
      skip_ws ()
    | '\n' ->
      incr pos;
      incr line;
      skip_ws ()
    | '/' when peek 1 = '/' ->
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done;
      skip_ws ()
    | '/' when peek 1 = '*' ->
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
  (* Two-byte punctuators win over their one-byte prefixes. *)
  let lex_punct c =
    let p =
      match (c, peek 1) with
      | '=', '=' -> "=="
      | '!', '=' -> "!="
      | '<', '=' -> "<="
      | '>', '=' -> ">="
      | '&', '&' -> "&&"
      | '|', '|' -> "||"
      | '(', _ -> "("
      | ')', _ -> ")"
      | '{', _ -> "{"
      | '}', _ -> "}"
      | '[', _ -> "["
      | ']', _ -> "]"
      | ';', _ -> ";"
      | ',', _ -> ","
      | '?', _ -> "?"
      | ':', _ -> ":"
      | '=', _ -> "="
      | '<', _ -> "<"
      | '>', _ -> ">"
      | '+', _ -> "+"
      | '-', _ -> "-"
      | '*', _ -> "*"
      | '/', _ -> "/"
      | '%', _ -> "%"
      | '!', _ -> "!"
      | _ -> fail "line %d: unexpected character %c" !line c
    in
    pos := !pos + String.length p;
    TPunct p
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
        else lex_punct c
      in
      tokens := tok :: !tokens
    end
  done;
  Array.of_list (List.rev (TEOF :: !tokens))

let string_of_token = function
  | TInt n -> string_of_int n
  | TFloat x -> string_of_float x
  | TIdent s -> s
  | TPunct s -> "'" ^ s ^ "'"
  | TEOF -> "<eof>"
