(* Abstract syntax of the mini-C kernel language.

   The language is deliberately small: scalars (int/float/bool), pointer
   parameters indexed with [p[e]] (multi-dimensional arrays are written
   with manual linearization, as PolyBench does internally), structured
   control flow, and calls to a fixed table of external functions.  It is
   just enough to express the TSVC / PolyBench / SPEC-surrogate kernels
   the evaluation needs, and it lowers directly to predicated SSA. *)

type ty = Tint | Tfloat | Tbool | Tptr of ty

let rec string_of_ty = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tbool -> "bool"
  | Tptr t -> string_of_ty t ^ "*"

type expr =
  | Eint of int
  | Efloat of float
  | Ebool of bool
  | Evar of string
  | Eindex of string * expr (* p[e], an rvalue load *)
  | Ebin of string * expr * expr (* "+" "-" "*" "/" "%" "<" ... "&&" "||" *)
  | Eun of string * expr (* "-" "!" *)
  | Eternary of expr * expr * expr
  | Ecall of string * expr list
  | Ecast of ty * expr

type stmt =
  | Sdecl of ty * string * expr
  | Sassign of string * expr
  | Sstore of string * expr * expr (* p[idx] = v *)
  | Sif of expr * stmt list * stmt list
  | Sfor of stmt * expr * stmt * stmt list (* init; cond; step *)
  | Swhile of expr * stmt list
  | Sexpr of expr (* expression evaluated for its side effect *)

type param = { pname : string; pty : ty; prestrict : bool }

type fdecl = { fdname : string; fdparams : param list; fdbody : stmt list }

(* Variables assigned (not declared) anywhere in a statement list; used
   to decide which variables need mu nodes at loop headers. *)
let rec assigned_vars stmts =
  List.concat_map assigned_of_stmt stmts

and assigned_of_stmt = function
  | Sdecl (_, x, _) -> [ x ] (* shadows; caller intersects with outer scope *)
  | Sassign (x, _) -> [ x ]
  | Sstore _ | Sexpr _ -> []
  | Sif (_, t, e) -> assigned_vars t @ assigned_vars e
  | Sfor (init, _, step, body) ->
    assigned_of_stmt init @ assigned_of_stmt step @ assigned_vars body
  | Swhile (_, body) -> assigned_vars body
