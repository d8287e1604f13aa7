(** Conversion shim from simulator exceptions to structured diagnostics. *)

val to_diag : exn -> Asipfb_diag.Diag.t option
(** [Some] for {!Interp.Runtime_error}, {!Interp.Fuel_exhausted} and
    {!Asipfb_exec.Memory.Bounds} (stage [Simulation]); [None] otherwise.  Fuel
    exhaustion carries context [kind=timeout] plus the budget and the
    number of executed instructions, so suite runners can classify
    timeouts separately from crashes
    ([Asipfb_core.Pipeline.classify_failure]). *)
