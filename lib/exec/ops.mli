(** Operator semantics shared by every simulator.

    One definition of the base-ISA arithmetic — the execution core, the
    public {!Asipfb_sim.Interp} wrappers, and the ASIP rewriter's constant
    folding all evaluate through here, so base and target simulation are
    apples-to-apples by construction. *)

exception Trap of string
(** Division by zero, out-of-range shift, sqrt of a negative, an operand
    of the wrong type — and, from the execution core, every other runtime
    trap (bounds, unknown label, uninitialized register).  Converted to the consumer-facing exception
    ({!Asipfb_sim.Interp.Runtime_error}, [Asipfb_asip.Tsim.Runtime_error])
    at the API edge. *)

val err : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Trap} with a formatted message. *)

val as_int : Value.t -> int
(** {!Value.as_int}, raising {!Trap} (same wording) on a float. *)

val as_float : Value.t -> float
(** {!Value.as_float}, raising {!Trap} (same wording) on an int. *)

val eval_binop : Asipfb_ir.Types.binop -> Value.t -> Value.t -> Value.t
(** @raise Trap on division by zero, out-of-range shift or an operand of
    the wrong type. *)

val eval_unop : Asipfb_ir.Types.unop -> Value.t -> Value.t
(** @raise Trap on sqrt of a negative or an operand of the wrong type. *)
