(* Compile-and-run orchestration for the native backend.

   Checked mode classifies a run exactly as the interpreters' runs are
   classified ({!Interp.run_class}), from the final memory, impure-call
   trace and classification line the emitted program prints (see
   {!Emit}).  Values cross the process boundary as little tokens
   ([i:<dec>], [f:<IEEE bits in hex>], [b:0/1], [u], [v:lane;lane;...]),
   so floats round-trip bit-exactly, NaN payloads included.

   Fast mode compiles the benchmarking configuration and reports
   nanoseconds per kernel execution plus a checksum of final memory for
   validation. *)

module Tm = Fgv_support.Telemetry
module Proc = Fgv_support.Proc
open Fgv_pssa

let available = Toolchain.available

(* ---------------- value tokens (OCaml side of the protocol) ------- *)

let rec value_token (v : Value.t) : string =
  match v with
  | Value.VUndef -> "u"
  | Value.VInt n -> Printf.sprintf "i:%d" n
  | Value.VFloat x -> Printf.sprintf "f:%016Lx" (Int64.bits_of_float x)
  | Value.VBool b -> if b then "b:1" else "b:0"
  | Value.VVec xs ->
    "v:"
    ^ String.concat ";" (Array.to_list (Array.map value_token xs))

let token_value (s : string) : Value.t =
  let scalar s =
    if s = "u" then Value.VUndef
    else if String.length s < 2 then failwith ("bad value token: " ^ s)
    else
      let tail = String.sub s 2 (String.length s - 2) in
      match s.[0] with
      | 'i' -> Value.VInt (int_of_string tail)
      | 'f' -> Value.VFloat (Int64.float_of_bits (Int64.of_string ("0x" ^ tail)))
      | 'b' -> Value.VBool (tail = "1")
      | _ -> failwith ("bad value token: " ^ s)
  in
  if String.length s >= 2 && s.[0] = 'v' && s.[1] = ':' then
    let tail = String.sub s 2 (String.length s - 2) in
    Value.VVec
      (Array.of_list (List.map scalar (String.split_on_char ';' tail)))
  else scalar s

(* ---------------- checked runs ------------------------------------ *)

let parse_run ~(memn : int) (out : string) : (Interp.run_class, string) result =
  let mem = Array.make memn Value.VUndef in
  let trace = ref [] in
  let cls = ref None in
  let bad = ref None in
  let line l =
    match String.split_on_char ' ' l with
    | [ "M"; idx; tok ] ->
      let i = int_of_string idx in
      if i >= 0 && i < memn then mem.(i) <- token_value tok
    | "C" :: name :: toks -> trace := (name, List.map token_value toks) :: !trace
    | [ "X"; "ok" ] -> cls := Some (fun obs -> Interp.Finished obs)
    | [ "X"; "trap" ] ->
      (* the binary says that it trapped, not why; any two traps agree *)
      cls := Some (fun _ -> Interp.Trapped "(native)")
    | [ "X"; "undef"; op ] -> cls := Some (fun _ -> Interp.Undef_trap op)
    | [ "X"; "fuel" ] -> cls := Some (fun _ -> Interp.Exhausted)
    | [] | [ "" ] -> ()
    | _ -> bad := Some l
  in
  (try List.iter line (String.split_on_char '\n' out)
   with e -> bad := Some (Printexc.to_string e));
  match !bad, !cls with
  | Some l, _ -> Error (Printf.sprintf "unparseable native output: %S" l)
  | None, None -> Error "native run printed no classification line"
  | None, Some cls -> Ok (cls { o_mem = mem; o_trace = List.rev !trace })

(* A compiled checked program: one compile serves any number of runs
   (the fuzz oracle reuses it across memory layouts). *)
type compiled = {
  nc_dir : string;
  nc_exe : string;
  nc_memn : int;
}

let fresh_dir () =
  let base = Filename.temp_file "fgv-native" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let release (c : compiled) =
  let rm f = try Sys.remove f with Sys_error _ -> () in
  rm c.nc_exe;
  rm (Filename.concat c.nc_dir "prog.c");
  try Unix.rmdir c.nc_dir with Unix.Unix_error _ -> ()

let compile_checked ?fuel (p : Fgv_cfg.Cir.prog) ~(mem : Value.t array) :
    (compiled, string) result =
  let src_text = Emit.checked ?fuel p ~mem in
  let dir = fresh_dir () in
  let src = Filename.concat dir "prog.c" in
  let exe = Filename.concat dir "prog" in
  write_file src src_text;
  match Toolchain.compile ~mode:Toolchain.Checked ~src ~exe with
  | Ok () -> Ok { nc_dir = dir; nc_exe = exe; nc_memn = Array.length mem }
  | Error e ->
    release { nc_dir = dir; nc_exe = exe; nc_memn = 0 };
    Error e

let run_checked (c : compiled) ~(args : Value.t list) :
    (Interp.run_class, string) result =
  let r =
    Tm.time "native.run" (fun () ->
        Proc.run c.nc_exe (List.map value_token args))
  in
  Tm.incr "native.runs";
  if not (Proc.ok r) then
    Error
      (Printf.sprintf "native run %s: %s" (Proc.status_string r.Proc.p_status)
         (String.trim r.Proc.p_stderr))
  else parse_run ~memn:c.nc_memn r.Proc.p_stdout

(* ---------------- fast runs --------------------------------------- *)

type fast_result = {
  nf_checksum : float; (* checksum of final memory after one run *)
  nf_ns : float; (* nanoseconds per kernel execution *)
  nf_reps : int; (* calibrated repetition count *)
  nf_compile_s : float;
  nf_run_s : float;
}

(* The checksum the emitted fast program computes, replayed on an
   interpreter memory image so the two sides can be compared. *)
let checksum_of_mem (mem : Value.t array) : float =
  Array.fold_left
    (fun acc (v : Value.t) ->
      acc
      +.
      match v with
      | Value.VFloat x -> x
      | Value.VInt n -> float_of_int n
      | Value.VBool b -> if b then 1.0 else 0.0
      | _ -> 0.0)
    0.0 mem

let parse_fast (out : string) ~compile_s ~run_s : (fast_result, string) result =
  let checksum = ref None and ns = ref None and reps = ref None in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "checksum"; bits ] ->
        checksum := Some (Int64.float_of_bits (Int64.of_string ("0x" ^ bits)))
      | [ "ns"; x ] -> ns := Some (float_of_string x)
      | [ "reps"; n ] -> reps := Some (int_of_string n)
      | _ -> ())
    (String.split_on_char '\n' out);
  match !checksum, !ns, !reps with
  | Some c, Some n, Some r ->
    Ok
      {
        nf_checksum = c;
        nf_ns = n;
        nf_reps = r;
        nf_compile_s = compile_s;
        nf_run_s = run_s;
      }
  | _ -> Error "native fast run: missing checksum/ns/reps output"

let run_fast (p : Fgv_cfg.Cir.prog) ~(args : Value.t list)
    ~(mem : Value.t array) : (fast_result, string) result =
  let src_text = Emit.fast p ~args ~mem in
  let dir = fresh_dir () in
  let src = Filename.concat dir "prog.c" in
  let exe = Filename.concat dir "prog" in
  write_file src src_text;
  let t0 = Unix.gettimeofday () in
  let res =
    match Toolchain.compile ~mode:Toolchain.Fast ~src ~exe with
    | Error e -> Error e
    | Ok () -> (
      let compile_s = Unix.gettimeofday () -. t0 in
      let r = Tm.time "native.run" (fun () -> Proc.run exe []) in
      Tm.incr "native.runs";
      if not (Proc.ok r) then
        Error
          (Printf.sprintf "native run %s: %s"
             (Proc.status_string r.Proc.p_status)
             (String.trim r.Proc.p_stderr))
      else parse_fast r.Proc.p_stdout ~compile_s ~run_s:r.Proc.p_wall_s)
  in
  release { nc_dir = dir; nc_exe = exe; nc_memn = 0 };
  res
