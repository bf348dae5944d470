(* Textual rendering of PSSA functions, close to the paper's notation:
   each line is "<def> = <op> ...  ; <predicate>".

   Everything is appended straight into one buffer, names, types and
   predicates included; only float constants go through [Printf] ("%g").
   The text is [Ir.value_name], [Ir.string_of_ty] and [Pred.to_string]'s,
   byte for byte. *)

open Ir

let add_int b n = Buffer.add_string b (string_of_int n)

let add_value f b v =
  match inst_opt f v with
  | Some i when i.name <> "" ->
    Buffer.add_char b '%';
    Buffer.add_string b i.name;
    Buffer.add_char b '.';
    add_int b v
  | Some _ ->
    Buffer.add_string b "%v";
    add_int b v
  | None ->
    Buffer.add_string b "%DEAD.";
    add_int b v

let rec add_ty b = function
  | Tvec (t, n) ->
    Buffer.add_char b '<';
    add_int b n;
    Buffer.add_string b " x ";
    add_ty b t;
    Buffer.add_char b '>'
  | t -> Buffer.add_string b (string_of_ty t)

(* [xs] with [sep] between them. *)
let add_list b sep add xs =
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_string b sep;
      add x)
    xs

let rec add_pred f b p =
  match Pred.view p with
  | Pred.Ptrue -> Buffer.add_string b "true"
  | Pred.Pfalse -> Buffer.add_string b "false"
  | Pred.Plit { v; positive } ->
    if not positive then Buffer.add_char b '!';
    add_value f b v
  | Pred.Pand xs -> add_junction f b " & " xs
  | Pred.Por xs -> add_junction f b " | " xs

and add_junction f b sep xs =
  Buffer.add_char b '(';
  add_list b sep (add_pred f b) xs;
  Buffer.add_char b ')'

let add_const b = function
  | Cint n -> add_int b n
  | Cfloat x -> Buffer.add_string b (Printf.sprintf "%g" x)
  | Cbool x -> Buffer.add_string b (string_of_bool x)
  | Cundef t ->
    Buffer.add_string b "undef:";
    add_ty b t

let add_kind f b kind =
  let s = Buffer.add_string b and v = add_value f b in
  let two a c =
    v a;
    s ", ";
    v c
  in
  match kind with
  | Const c ->
    s "const ";
    add_const b c
  | Arg n ->
    s "arg ";
    add_int b n;
    s " (";
    s (try fst (List.nth f.params n) with _ -> string_of_int n);
    s ")"
  | Binop (op, a, c) ->
    s (string_of_binop op);
    s " ";
    two a c
  | Cmp (op, a, c) ->
    s "cmp ";
    s (string_of_cmpop op);
    s " ";
    two a c
  | Cast (t, a) ->
    s "cast ";
    v a;
    s " to ";
    add_ty b t
  | Select { cond; if_true; if_false } ->
    s "select ";
    v cond;
    s ", ";
    two if_true if_false
  | Phi ops ->
    s "phi(";
    add_list b ", "
      (fun (p, x) ->
        add_pred f b p;
        s ": ";
        v x)
      ops;
    s ")"
  | Mu { init; recur; loop } ->
    s "mu(";
    two init recur;
    s ") @L";
    add_int b loop
  | Eta { loop; value } ->
    s "eta L";
    add_int b loop;
    s " ";
    v value
  | Load { addr } ->
    s "load [";
    v addr;
    s "]"
  | Store { addr; value } ->
    s "store [";
    v addr;
    s "], ";
    v value
  | Call { callee; args; effect } ->
    s "call ";
    s (match effect with Pure -> "pure " | Readonly -> "readonly " | Impure -> "");
    s callee;
    s "(";
    add_list b ", " v args;
    s ")"
  | Splat a ->
    s "splat ";
    v a
  | Vecbuild vs ->
    s "vec(";
    add_list b ", " v vs;
    s ")"
  | Extract (a, n) ->
    s "extract ";
    v a;
    s ", ";
    add_int b n

let add_inst f b i =
  if i.ty <> Tvoid then begin
    add_value f b i.id;
    Buffer.add_string b " = "
  end;
  add_kind f b i.kind;
  Buffer.add_string b " ; ";
  add_pred f b i.ipred

let string_of_inst f i =
  let b = Buffer.create 64 in
  add_inst f b i;
  Buffer.contents b

let to_string f =
  let b = Buffer.create 4096 in
  let indent depth =
    for _ = 1 to depth do
      Buffer.add_string b "  "
    done
  in
  let line depth i =
    indent depth;
    add_inst f b (inst f i);
    Buffer.add_char b '\n'
  in
  let rec items depth =
    List.iter (function
      | I id -> line depth id
      | L lid ->
        let lp = loop f lid in
        indent depth;
        Buffer.add_string b "loop L";
        add_int b lp.lid;
        Buffer.add_string b " ; ";
        add_pred f b lp.lpred;
        Buffer.add_char b '\n';
        List.iter (line (depth + 1)) lp.mus;
        items (depth + 1) lp.body;
        indent depth;
        Buffer.add_string b "while ";
        add_pred f b lp.cont;
        Buffer.add_char b '\n')
  in
  Buffer.add_string b "func ";
  Buffer.add_string b f.fname;
  Buffer.add_char b '(';
  add_list b ", "
    (fun (n, t) ->
      Buffer.add_string b n;
      Buffer.add_string b ": ";
      add_ty b t)
    f.params;
  Buffer.add_string b ") {\n";
  items 1 f.fbody;
  Buffer.add_string b "}\n";
  Buffer.contents b

let print f = print_string (to_string f)
