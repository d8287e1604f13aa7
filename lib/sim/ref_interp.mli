(** The pre-refactor tree-walking interpreter, retained as the executable
    specification of the base semantics.

    {!Interp.run} executes through the pre-compiled execution core
    ([Asipfb_exec]); this module keeps the original naive tree-walker
    (hashtable registers, hashtable profile, label lookup per jump) as an
    oracle.  The differential property tests check that both agree on the
    return value, final memory, profile and instruction count for random
    valid programs, and the throughput bench reports the core's speedup
    over this baseline.  Raises {!Interp.Runtime_error} (never
    {!Interp.Fuel_exhausted} — fuel exhaustion predates that distinction
    here, reported as ["out of fuel (infinite loop?)"]). *)

val run :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?on_exec:(string -> Asipfb_ir.Instr.t -> unit) ->
  ?faults:Asipfb_exec.Fault.t ->
  Asipfb_ir.Prog.t ->
  Interp.outcome
(** Same contract as {!Interp.run}, pre-refactor behavior. *)
