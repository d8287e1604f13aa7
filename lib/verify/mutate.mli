(** Seeded schedule corruption — the adversary for the
    translation-validation tests.

    Each {!kind} injects one small, realistic miscompile of the classes a
    buggy scheduler could silently produce; the QCheck mutation suite
    feeds the result to {!Equiv.check} and demands a rejection with a
    counterexample the execution core confirms whenever the corruption
    is observable on the reference {!Semantics}. *)

type kind =
  | Swap_deps
      (** Swap an adjacent instruction pair linked by a flow dependence. *)
  | Drop_copy  (** Delete a register-to-register [mov]. *)
  | Retarget_jump  (** Point a branch at a different in-function label. *)
  | Edit_const  (** Increment an integer literal operand. *)

val all : kind list
val kind_to_string : kind -> string

val apply : seed:int -> kind -> Asipfb_ir.Prog.t -> Asipfb_ir.Prog.t option
(** [apply ~seed kind p] corrupts one PRNG-chosen site, or [None] when
    the program offers no site for this kind.  Deterministic in
    [seed]. *)
