(** Classic scalar cleanup passes: constant folding, copy propagation, and
    dead-code elimination.

    The paper's front end leaned on gcc for this; our lowering is direct,
    so a handful of redundant moves and foldable literals survive into the
    3-address code.  Cleanup is *not* part of the O0/O1/O2 levels (the
    study's baselines must stay untouched); it exists as a substrate for
    the ablation benches, which quantify how much of the detected-sequence
    picture is an artifact of lowering noise.

    All passes preserve opids of surviving instructions and observable
    behaviour; folding never evaluates trapping operations (division,
    out-of-range shifts) at compile time. *)

val constant_fold : Asipfb_ir.Func.t -> Asipfb_ir.Func.t
(** Replace operations whose operands are all literals by moves of the
    folded value. *)

val eliminate_dead : Asipfb_ir.Func.t -> Asipfb_ir.Func.t
(** Remove side-effect-free instructions whose results are never used
    (liveness-based, whole function). *)

val run : Asipfb_ir.Prog.t -> Asipfb_ir.Prog.t
(** Fold, propagate, and eliminate to a fixpoint (bounded), validating the
    result. *)
