(** Structured diagnostics for the Figure-2 pipeline.

    Replaces stringly [Failure]/[Runtime_error] values at API boundaries:
    every user-facing failure carries a severity, the pipeline stage that
    produced it, an optional file/position, a message, and key/value
    context.  [Result]-based entry points (e.g.
    [Pipeline.analyze_result], [Frontend_diag.compile_result]) carry
    these instead of raising, so one broken benchmark yields a diagnostic
    while the rest of a suite run completes.  The JSON form lives with
    the other wire types in [Service.Api.diag_to_json]. *)

type severity = Info | Warning | Error

type stage =
  | Frontend
  | Simulation
  | Scheduling
  | Detection
  | Coverage
  | Verification
  | Selection
  | Reporting
  | Driver

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
(** Carrier for code that must raise a structured diagnostic through an
    exception boundary (converted back at the API edge). *)

val make :
  ?severity:severity ->
  ?file:string ->
  ?pos:pos ->
  ?context:(string * string) list ->
  stage:stage ->
  string ->
  t
(** Severity defaults to [Error]. *)

val errorf :
  ?severity:severity ->
  ?file:string ->
  ?pos:pos ->
  ?context:(string * string) list ->
  stage:stage ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [make] with a format string. *)

val with_file : t -> string -> t
val with_context : t -> (string * string) list -> t
val is_error : t -> bool

val severity_to_string : severity -> string
val stage_to_string : stage -> string

val to_string : t -> string
(** One-line human rendering:
    ["error[frontend] foo.c:3:7: message (key=value)"]. *)

val pp : Format.formatter -> t -> unit

val of_unknown_exn : exn -> t
(** Last-resort conversion for exceptions no subsystem shim recognised
    ([Failure], [Invalid_argument], anything else via [Printexc]). *)
