(** Simulator for the customized ASIP target.

    Executes a {!Target.tprog} on the shared execution core
    ([Asipfb_exec]): a [Base] instruction compiles to one slot, a
    [Chained] instruction to one fused slot whose member operations run in
    order within a single cycle.  Base-op semantics are therefore
    literally the same code as {!Asipfb_sim.Interp}'s — this module only
    owns chained dispatch and the cycle model — which turns the selection
    stage's *estimated* speedup into a *measured* one, with output
    equality against the base program checked by the test suite.

    The cycle model charges the machine description's latencies: a base
    op costs its class latency, a chained instruction its critical-path
    cycles, and [baseline_cycles] prices the same execution with every op
    at its own latency and no chaining.

    Under {!Uarch.flat} every class latency is one cycle, so a base slot
    costs one cycle and [baseline_cycles] equals [ops_executed].  A fused
    slot costs one cycle too whenever its chain fits the clock, and
    {!Select} vetoes every chain whose delay exceeds the clock — so on
    selected code the flat cycle count is exactly the number of executed
    slots. *)

exception Runtime_error of string

type outcome = {
  return_value : Asipfb_exec.Value.t option;
  memory : Asipfb_exec.Memory.t;
  cycles : int;
      (** Executed cycles under the cycle model (labels free); equals
          executed target slots under {!Uarch.flat} on selected code. *)
  baseline_cycles : int;
      (** Latency-weighted cycles of the same execution without chaining;
          equals [ops_executed] under {!Uarch.flat}. *)
  chained_executed : int;  (** How many executed slots were chained. *)
  ops_executed : int;
      (** Underlying operations, including those inside chains — equals the
          base simulator's dynamic count on equivalent code. *)
}

val run :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?uarch:Uarch.t ->
  Target.tprog ->
  outcome
(** [uarch] defaults to {!Uarch.flat}.
    @raise Runtime_error on traps, unknown labels, or fuel exhaustion. *)

val measured_speedup : outcome -> float
(** baseline_cycles / cycles — the cycle-count win the chained ISA
    delivers on this input under the simulated machine. *)
