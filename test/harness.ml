(* Shared helpers for the test suites: compiling kernels, building
   memories, running both interpreters, and comparing outcomes. *)

open Fgv_pssa

let compile = Fgv_frontend.Lower_ast.compile

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
