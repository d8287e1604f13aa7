(** Percolation-style upward code motion (move-op).

    Repeatedly moves dependence-free operations from the top of a block
    into its unique predecessor, inserting before the predecessor's
    terminator.  Motion past a conditional branch is speculation and is
    restricted to trap-free operations whose destination is dead on the
    other paths; motion along an unconditional edge is unrestricted (for
    side-effect-free operations).  No duplication (the multi-predecessor
    unify primitive is not performed), so every instruction keeps its
    opid and pre-optimization profile counts remain exact.

    Iterating the single-step motion to a fixpoint lets operations climb
    through several blocks, which is what exposes cross-basic-block data
    flow to the sequence detector — the paper's central mechanism.

    Liveness and must-define ({!Asipfb_cfg.Defined}) are solved once per
    function and patched exactly after each move, so the move sequence
    is that of re-solving both before every move. *)

val run : Asipfb_ir.Prog.t -> Asipfb_ir.Prog.t
(** [run p] applies single moves, first legal move first, until none is
    legal or the function's total move budget (8 per instruction, at
    least 16) is spent.  Result validates and is observationally
    equivalent. *)

val run_func : Asipfb_ir.Func.t -> Asipfb_ir.Func.t
(** One function's motion, as in {!run} (without validation). *)

val hoistable_past_branch : Asipfb_ir.Instr.t -> bool
(** Trap-free test used for speculation (exposed for unit tests): ALU,
    compare, move, conversion and non-trapping intrinsics; excludes loads,
    stores, division/remainder, square root, calls, control, and shifts by
    a non-constant or out-of-range amount. *)
