(** Bounded execution tracing.

    Re-runs a program with the interpreter while recording the first
    [limit] executed instructions (function, opid, rendered text).  Meant
    for debugging transformed code: diff the trace of an optimized program
    against its reference to locate the first divergence. *)

type event = {
  step : int;  (** 0-based position in the dynamic stream. *)
  func : string;
  opid : int;
  text : string;  (** Rendered instruction. *)
}

val run :
  ?limit:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  Asipfb_ir.Prog.t ->
  event list * Interp.outcome
(** [run p] executes like {!Interp.run} (same fuel default) and returns
    the first [limit] (default 1000) events alongside the outcome.
    @raise Interp.Runtime_error as the plain interpreter would. *)

val first_divergence : event list -> event list -> (event * event) option
(** First position where two traces disagree on the executed opid —
    [None] if one trace is a prefix of the other or they are equal. *)
