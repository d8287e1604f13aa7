(** The 3-address-code interpreter and profiler — step 2 of the paper's
    pipeline.

    Executes a validated program from its entry function, recording a
    per-opid dynamic count.  Every executed non-label instruction costs one
    cycle; the total dynamic count is the baseline cycle count the ASIP
    speedup model compares against.

    This module is a thin front end over the pre-compiled execution core
    ([Asipfb_exec]): the program is compiled once to a dense
    register-renumbered form and interpreted with flat arrays.  Results —
    profile, instruction count, trap messages and fault stream included —
    are identical to the reference semantics ([Asipfb_verify.Semantics]),
    which shares no code with the core; differential tests check this,
    and the core runs several times faster. *)

exception Runtime_error of string
(** Division by zero, out-of-bounds access, shift out of range, or an
    operand of the wrong type or an unbound register (IR bugs). *)

exception Fuel_exhausted of { instrs_executed : int; fuel : int }
(** The fuel budget ran out before the program returned.  Structurally
    distinct from {!Runtime_error} so suite runners can classify timeouts
    (likely infinite loops, or a fault-injection fuel cap) separately from
    genuine crashes; {!Sim_diag.to_diag} tags it [kind=timeout]. *)

exception Watchdog_timeout of { instrs_executed : int }
(** A supervised run's wall-clock watchdog expired mid-execution (polled
    cooperatively by the execution core every few thousand ops).  Tagged
    [kind=timeout] by {!Sim_diag.to_diag}, like {!Fuel_exhausted}. *)

type outcome = {
  return_value : Asipfb_exec.Value.t option;
      (** Entry function's return, if any. *)
  profile : Asipfb_exec.Profile.t;
  memory : Asipfb_exec.Memory.t;  (** Final memory, for output checking. *)
  instrs_executed : int;
}

val run :
  ?fuel:int ->
  ?inputs:(string * Asipfb_exec.Value.t array) list ->
  ?faults:Asipfb_exec.Fault.t ->
  ?watchdog:(unit -> bool) ->
  Asipfb_ir.Prog.t ->
  outcome
(** [run p ~inputs] seeds the named regions and interprets from
    [p.entry].  [fuel] bounds total executed instructions (default
    50 million).  [faults], when given, injects register/memory
    corruption and clamps fuel per its configuration (see {!Fault});
    corruption is silent by design and must be caught by output
    self-checks.  [watchdog] is the supervision layer's deadline poll,
    checked periodically by the core.  Passing no [faults] selects an
    uninstrumented core with zero per-op hook overhead.
    @raise Runtime_error as above.
    @raise Fuel_exhausted when the fuel budget is spent.
    @raise Watchdog_timeout when [watchdog] reports expiry. *)

val eval_binop :
  Asipfb_ir.Types.binop -> Asipfb_exec.Value.t -> Asipfb_exec.Value.t ->
  Asipfb_exec.Value.t
(** Exposed for unit tests and for the ASIP rewriter's constant folding.
    @raise Runtime_error on division by zero or out-of-range shift. *)

val eval_unop : Asipfb_ir.Types.unop -> Asipfb_exec.Value.t -> Asipfb_exec.Value.t
