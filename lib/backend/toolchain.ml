(* System C toolchain discovery and invocation.

   The backend drives whatever compiler the host provides: [FGV_CC]
   overrides, otherwise the first of cc / gcc / clang on PATH wins.
   Everything degrades gracefully when there is no compiler at all —
   {!find_cc} returns [None] and every native consumer (bench lane,
   fuzz differential, fgvc --run-native) reports or skips instead of
   failing. *)

module Tm = Fgv_support.Telemetry
module Proc = Fgv_support.Proc

type mode =
  | Checked (* -O0, no -march: keeps FP bit-exact vs. the interpreter *)
  | Fast (* -O2 -march=native: the SLP-vectorizing configuration *)

let candidates = [ "cc"; "gcc"; "clang" ]

let find_cc () =
  match Sys.getenv_opt "FGV_CC" with
  | Some cc -> Proc.find_in_path cc
  | None -> List.find_map Proc.find_in_path candidates

let available () = find_cc () <> None

let mode_flags = function
  | Checked -> [ "-O0"; "-w" ]
  | Fast -> [ "-O2"; "-march=native"; "-w" ]

(* Compile [src] to [exe].  Fast mode retries without -march=native for
   toolchains that reject it (some cross setups); checked mode never
   adds -march in the first place. *)
let compile ~(mode : mode) ~(src : string) ~(exe : string) :
    (unit, string) result =
  match find_cc () with
  | None -> Error "no C compiler (install cc/gcc/clang or set FGV_CC)"
  | Some cc ->
    let attempt flags = Proc.run cc (flags @ [ src; "-o"; exe; "-lm" ]) in
    let r =
      Tm.time "native.compile" (fun () ->
          let r = attempt (mode_flags mode) in
          if (not (Proc.ok r)) && mode = Fast then attempt [ "-O2"; "-w" ]
          else r)
    in
    Tm.incr "native.compiles";
    if Proc.ok r then Ok ()
    else begin
      Tm.incr "native.compile_errors";
      let err = String.trim r.Proc.p_stderr in
      let err =
        if String.length err > 400 then String.sub err 0 400 ^ "..." else err
      in
      Error
        (Printf.sprintf "%s failed (%s): %s" (Filename.basename cc)
           (Proc.status_string r.Proc.p_status)
           err)
    end
