(** Small-step operational semantics for the 3-address code: the one
    reference every other TAC executor is checked against.

    The machine configuration mirrors {!Asipfb_exec.Code}'s compiled
    form — a register file, region memory, a program counter, and a call
    stack — but stays directly over the linear {!Asipfb_ir.Func.t} bodies
    so a step is inspectable and the relation is obviously deterministic.
    It shares no code with the execution core: arithmetic and trap
    behavior are defined here, with trap messages worded like the core's.

    Execution produces an {e observation trace}: the sequence of stores,
    calls, and returns (plus a terminal trap, if any).  Two programs are
    observationally equivalent on an input exactly when their traces,
    results, and final memories agree — the ground truth the
    {!Equiv} refinement checker's counterexamples are stated in.  It also
    produces the profile and instruction count {!Asipfb_sim.Interp.run}
    does, so the simulator's degradation ladder can stand on it. *)

module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory

type event =
  | Store of { region : string; index : int; value : Value.t }
  | Call of { callee : string; args : Value.t list }
  | Return of Value.t option
      (** Emitted for every executed [Ret], innermost frames included. *)
  | Trap of { message : string }
      (** Terminal: always the last event of a trapping trace. *)

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string
val event_equal : event -> event -> bool

type result =
  | Returned of Value.t option  (** The entry function returned. *)
  | Trapped of string
  | Out_of_fuel

type outcome = {
  trace : event list;  (** Observations, in execution order. *)
  result : result;
  memory : Memory.t;  (** Final region memory. *)
  profile : Asipfb_exec.Profile.t;  (** Per-opid dynamic counts. *)
  instrs_executed : int;  (** Non-label instructions executed. *)
}

val run :
  ?fuel:int ->
  ?inputs:(string * Value.t array) list ->
  ?faults:Asipfb_exec.Fault.t ->
  Asipfb_ir.Prog.t ->
  outcome
(** Run the entry function on zeroed memory seeded with [inputs], with
    no registers bound (the suite's entry functions take inputs through
    memory regions, not parameters), for at most [fuel] (default
    50,000,000) non-label instructions — the core's unit.  [faults]
    clamps the fuel and sees every register write and memory load in the
    core's order, so equal seeds give the core's fault stream.  Never
    raises on program behavior: traps, unknown labels/functions,
    uninitialized reads, type confusion and out-of-bounds accesses all
    land in [result]/[trace] as traps.
    @raise Invalid_argument if the entry function or an input region is
    unknown, or an input overflows its region. *)
