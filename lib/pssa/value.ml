(* Runtime values for the interpreters.  Addresses are plain integers
   indexing a flat cell heap, which is what lets may-alias pointers
   actually alias at run time (the whole point of the paper). *)

type t =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VVec of t array
  | VUndef

exception Trap of string

(* Loading or storing through an address that was never computed (the
   instruction producing it was predicated off, or a dead phi operand
   became undef).  Raised as its own exception — not a generic {!Trap} —
   so differential-testing oracles can classify "both interpreters
   trapped on an undef address at the same operation" as agreement
   instead of parsing trap messages.  [op] is ["load"] or ["store"]. *)
exception Undef_access of string

let undef_access op = raise (Undef_access op)

(* The run's fuel ran out (both interpreters count one unit per executed
   instruction; the PSSA one also per loop iteration).  Shared by both,
   so classification needs no per-interpreter case. *)
exception Out_of_fuel

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let to_int = function
  | VInt n -> n
  | VBool true -> 1
  | VBool false -> 0
  | v -> trap "expected int, got %s" (match v with
      | VFloat _ -> "float" | VVec _ -> "vector" | VUndef -> "undef" | _ -> "?")

let to_float = function
  | VFloat x -> x
  | v -> trap "expected float, got %s" (match v with
      | VInt _ -> "int" | VBool _ -> "bool" | VVec _ -> "vector"
      | VUndef -> "undef" | _ -> "?")

(* Undefined booleans read as false: a predicate literal that was never
   computed can only come from a context whose enclosing predicate is
   already false (see interp.ml), so the overall evaluation is
   unaffected. *)
let to_bool = function
  | VBool b -> b
  | VInt n -> n <> 0
  | VUndef -> false
  | _ -> trap "expected bool"

let is_undef = function VUndef -> true | _ -> false

let rec equal a b =
  match a, b with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y ->
    (* bit-compare: interpreters are deterministic, NaN == NaN here *)
    Int64.bits_of_float x = Int64.bits_of_float y
  | VBool x, VBool y -> x = y
  | VVec x, VVec y ->
    Array.length x = Array.length y
    && Array.for_all2 (fun a b -> equal a b) x y
  | VUndef, VUndef -> true
  | _ -> false

let rec to_string = function
  | VInt n -> string_of_int n
  | VFloat x -> Printf.sprintf "%h" x
  | VBool b -> string_of_bool b
  | VVec a ->
    "<" ^ String.concat ", " (Array.to_list (Array.map to_string a)) ^ ">"
  | VUndef -> "undef"
