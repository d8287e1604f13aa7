(** Degradation ladder for simulation.

    {!run} executes a program on the fast execution core; if the core
    fails {e non-semantically} — any exception other than
    {!Interp.Runtime_error}, {!Interp.Fuel_exhausted}, or
    {!Interp.Watchdog_timeout} — the result is recomputed on the
    independently implemented reference tree-walker ({!Ref_interp}) and a
    [kind=degraded] warning diagnostic is attached.  With [cross_check]
    the reference runs even on success and any disagreement yields the
    reference result plus a [kind=mismatch] error diagnostic. *)

val outcomes_agree : Interp.outcome -> Interp.outcome -> bool
(** Agreement on return value, instruction count, profile (as a sorted
    alist), and every memory region's dump — never structural [=] on the
    underlying hashtables. *)

val run :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?faults:Asipfb_exec.Fault.t ->
  ?fresh_faults:(unit -> Asipfb_exec.Fault.t) ->
  ?watchdog:(unit -> bool) ->
  ?inject_core_crash:bool ->
  ?cross_check:bool ->
  ?benchmark:string ->
  Asipfb_ir.Prog.t ->
  Interp.outcome * Asipfb_diag.Diag.t list
(** Like {!Interp.run}, plus the fallback ladder.  [fresh_faults], when
    given, supplies an identically seeded injector for the reference run
    (a consumed [faults] stream cannot be replayed); [inject_core_crash]
    simulates a core crash (the chaos harness's ["exec-core"] seam);
    [benchmark] labels the diagnostics.  Semantic exceptions propagate
    unchanged; if the reference also fails, the original core exception
    is re-raised. *)
