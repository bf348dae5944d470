(* The one compile path (DESIGN §3): mini-C source, or one parsed kernel,
   to a verified, optimized function, or a typed error naming the stage
   that refused it.  fgvc, the compile service, the bench harness and
   the fuzz oracle all compile here and map no frontend exception
   themselves, so a stage hook (a timer, a budget) is added once. *)

open Fgv_pssa

type error =
  | Lex of string
  | Parse of string
  | Lower of string
  | Crashed of exn  (** the pipeline, or one of its [on_pass] hooks, raised *)
  | Ill_formed of string  (** the verifier rejected the IR *)

(* The compile service's [error] text, which fgvc prints too. *)
let message = function
  | Lex m -> "lex error: " ^ m
  | Parse m -> "parse error: " ^ m
  | Lower m -> "lowering error: " ^ m
  | Crashed e -> "pipeline crashed: " ^ Printexc.to_string e
  | Ill_formed m -> "optimized IR is ill-formed: " ^ m

let parsed parse src =
  match parse src with
  | v -> Ok v
  | exception Lexer.Error m -> Error (Lex m)
  | exception Parser.Error m -> Error (Parse m)

(* A translation unit's kernels, each with the token slice it was parsed
   from (the compile service's per-kernel cache keys). *)
let units src = parsed Parser.parse_program src

let verified f =
  match Verifier.verify_or_message f with
  | None -> Ok f
  | Some m -> Error (Ill_formed m)

(* Lower [fd], without its [restrict] qualifiers unless [restrict],
   verify, run [pipeline] and verify again.  Each compile starts a fresh
   predicate intern generation, so its interning and the
   [pred.hashcons_*] counters never depend on what the domain compiled
   before. *)
let fdecl ?(restrict = true) pipeline (fd : Ast.fdecl) =
  Pred.reset ();
  let param p = { p with Ast.prestrict = p.Ast.prestrict && restrict } in
  match Lower_ast.lower_fdecl { fd with fdparams = List.map param fd.fdparams } with
  | exception Lower_ast.Error m -> Error (Lower m)
  | f ->
    Result.bind (verified f) (fun f ->
        match pipeline f with
        | () -> verified f
        | exception e -> Error (Crashed e))

let source ?restrict pipeline src =
  Result.bind (parsed Parser.parse src) (fdecl ?restrict pipeline)
