(** Static-analysis umbrella: one entry point per checker family, plus
    the [mode] knob the engine and CLI share.

    Three checkers, all reporting {!Asipfb_diag.Diag.t}:
    - {!Lint} — mini-C source lint over the typed AST;
    - {!Ircheck} — dataflow checks over the 3-address IR
      (with {!Asipfb_ir.Validate}'s structural checks folded in);
    - {!Equiv} — translation validation: a semantic refinement proof
      per optimization level, with concrete counterexamples on failure.
      It is the only schedule verifier.

    [`Ir] runs the first two on the unoptimized program; [`Full] adds
    the IR dataflow checks on every schedule; [`Tv] adds the refinement
    proof on top of [`Full].  Lint/IR findings are warnings; refinement
    failures are errors. *)

type mode = [ `Off | `Ir | `Full | `Tv ]

val mode_to_string : mode -> string

val lint_source : string -> Asipfb_diag.Diag.t list
(** Parse and type-check a mini-C translation unit, then run the
    {!Lint} rules over the typed AST.  A frontend failure is returned
    as that single (error) diagnostic rather than raised. *)

val check_ir : Asipfb_ir.Prog.t -> Asipfb_diag.Diag.t list
(** {!Asipfb_ir.Validate.check_diags} followed by {!Ircheck.check}. *)

val check_schedule :
  original:Asipfb_ir.Prog.t ->
  Asipfb_sched.Schedule.t ->
  Asipfb_diag.Diag.t list
(** The IR dataflow checks ({!Ircheck.check}) on one opt-level output —
    a transformation must not introduce uninitialized reads or
    unreachable blocks.  [original] is unused: whether the schedule
    preserves the source's meaning is {!check_refinement}'s question. *)

val check_refinement :
  original:Asipfb_ir.Prog.t ->
  Asipfb_sched.Schedule.t ->
  Asipfb_diag.Diag.t list
(** Translation validation of one opt-level output: {!Equiv.check}'s
    verdict as diagnostics, each tagged with the schedule's level.  [[]]
    is a refinement proof. *)
