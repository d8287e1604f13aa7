(** Dominator analysis over a {!Cfg.t}.

    Classic iterative bit-set algorithm; graphs here are tiny (DSP kernels),
    so asymptotics are irrelevant next to clarity. *)

type t

val compute : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b] — every path from entry to [b] passes through [a].
    Reflexive. Unreachable blocks are dominated by everything (vacuous). *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry block and unreachable
    blocks. *)
