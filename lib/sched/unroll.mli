(** Physical loop unrolling.

    Duplicates the body (and guard) of every pipelinable loop once, so two
    consecutive iterations sit in straight-line order with the original
    exit tests preserved between them.  Copies get fresh opids and fresh
    labels; registers are shared between copies (the second copy reads
    what the first wrote, exactly as the second iteration would).

    The primary consumer is validation: the kernel-based loop-carried
    analysis claims certain cross-iteration chains exist, and on a
    physically unrolled program those same chains appear inside one
    iteration of the doubled loop — so detection results should be stable
    under unrolling (see the [validation_unroll] artifact and tests). *)

val loop_once : Asipfb_ir.Prog.t -> Asipfb_ir.Prog.t
(** Unroll every pipelinable loop (single-path body, as recognized by
    {!Schedule.find_kernels}) by a factor of two.  The result validates
    and is observationally equivalent; programs without such loops are
    returned unchanged (new ids may still be allocated). *)
