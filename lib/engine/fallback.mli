(** Degradation ladder for simulation.

    {!run} executes a program on the fast execution core; if the core
    fails {e non-semantically} — any exception other than
    {!Asipfb_sim.Interp.Runtime_error}, {!Asipfb_sim.Interp.Fuel_exhausted},
    or {!Asipfb_sim.Interp.Watchdog_timeout} — the result is recomputed on
    the reference semantics ({!Asipfb_verify.Semantics}), which shares no
    code with the core, and a [kind=degraded] warning diagnostic is
    attached.  It lives in the engine, its one production caller,
    because the verify library already depends on the simulator. *)

val reference :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?faults:Asipfb_exec.Fault.t ->
  Asipfb_ir.Prog.t ->
  Asipfb_sim.Interp.outcome
(** {!Asipfb_verify.Semantics.run} under {!Asipfb_sim.Interp.run}'s
    contract: same profile, instruction count and (under equal seeds)
    fault stream as the core.
    @raise Asipfb_sim.Interp.Runtime_error on a trap, with the core's
    wording.
    @raise Asipfb_sim.Interp.Fuel_exhausted when the fuel is spent. *)

val run :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?faults:Asipfb_exec.Fault.t ->
  ?fresh_faults:(unit -> Asipfb_exec.Fault.t) ->
  ?watchdog:(unit -> bool) ->
  ?inject_core_crash:bool ->
  ?benchmark:string ->
  Asipfb_ir.Prog.t ->
  Asipfb_sim.Interp.outcome * Asipfb_diag.Diag.t list
(** Like {!Asipfb_sim.Interp.run}, plus the fallback ladder.
    [fresh_faults], when given, supplies an identically seeded injector
    for the reference run (a consumed [faults] stream cannot be replayed);
    [inject_core_crash] simulates a core crash (the chaos harness's
    ["exec-core"] seam); [benchmark] labels the diagnostics.  Semantic
    exceptions propagate unchanged; if the reference also fails, the
    original core exception is re-raised. *)
