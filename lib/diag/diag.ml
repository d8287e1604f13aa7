(* Structured diagnostics for the Figure-2 pipeline.

   Every user-facing failure in the system is normalised into a [t]: a
   severity, the pipeline stage that produced it, an optional source
   position, a human message, and a list of key/value context pairs.
   API boundaries expose [Result]-based entry points carrying [t] instead
   of raising stringly exceptions, so a broken benchmark yields one
   diagnostic rather than aborting a whole suite run. *)

type severity = Info | Warning | Error

type stage =
  | Frontend     (* lexing, parsing, semantic analysis, lowering *)
  | Simulation   (* interpreter, memory, profiling, fault self-checks *)
  | Scheduling   (* percolation / pipelining / renaming transforms *)
  | Detection    (* branch-and-bound sequence analyzer *)
  | Coverage     (* iterative greedy coverage *)
  | Verification (* static checkers: dataflow, refinement proof, lint *)
  | Selection    (* ASIP instruction selection / netlists *)
  | Reporting    (* tables, figures, CSV export *)
  | Driver       (* CLI / pipeline orchestration *)

type pos = { line : int; col : int }

type t = {
  severity : severity;
  stage : stage;
  file : string option;
  pos : pos option;
  message : string;
  context : (string * string) list;
}

exception Diag_error of t

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let stage_to_string = function
  | Frontend -> "frontend"
  | Simulation -> "simulation"
  | Scheduling -> "scheduling"
  | Detection -> "detection"
  | Coverage -> "coverage"
  | Verification -> "verification"
  | Selection -> "selection"
  | Reporting -> "reporting"
  | Driver -> "driver"

let make ?(severity = Error) ?file ?pos ?(context = []) ~stage message =
  { severity; stage; file; pos; message; context }

let errorf ?severity ?file ?pos ?context ~stage fmt =
  Format.kasprintf (fun message -> make ?severity ?file ?pos ?context ~stage message) fmt

let with_file t file = { t with file = Some file }
let with_context t extra = { t with context = t.context @ extra }
let is_error t = t.severity = Error

(* "error[frontend] foo.c:3:7: unexpected character (got='!')" *)
let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (severity_to_string t.severity);
  Buffer.add_char buf '[';
  Buffer.add_string buf (stage_to_string t.stage);
  Buffer.add_string buf "] ";
  (match t.file with
  | Some f ->
      Buffer.add_string buf f;
      Buffer.add_char buf ':'
  | None -> ());
  (match t.pos with
  | Some p ->
      Buffer.add_string buf (Printf.sprintf "%d:%d:" p.line p.col);
      Buffer.add_char buf ' '
  | None -> if t.file <> None then Buffer.add_char buf ' ');
  Buffer.add_string buf t.message;
  (match t.context with
  | [] -> ()
  | kvs ->
      Buffer.add_string buf " (";
      Buffer.add_string buf
        (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs));
      Buffer.add_char buf ')');
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Last-resort conversion for exceptions no subsystem shim recognised. *)
let of_unknown_exn exn =
  match exn with
  | Failure msg -> make ~stage:Driver msg
  | Invalid_argument msg ->
      make ~stage:Driver ~context:[ ("kind", "invalid-argument") ] msg
  | Diag_error d -> d
  | exn -> make ~stage:Driver ~context:[ ("kind", "uncaught-exception") ]
             (Printexc.to_string exn)
