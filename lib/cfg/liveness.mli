(** Backward liveness dataflow over a {!Cfg.t}. *)

type t

val compute : Cfg.t -> t

val transfer : Cfg.block -> Asipfb_ir.Reg.Set.t -> Asipfb_ir.Reg.Set.t
(** [transfer block out]: the registers live at [block]'s entry when
    [out] is live at its exit — the solver's block transfer, exposed so a
    pass that changes one block can re-sweep just that block. *)

val live_in : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers live at block entry. *)

val live_out : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers live at block exit (union of successors' live-in). *)

val live_before : t -> block:int -> pos:int -> Asipfb_ir.Reg.Set.t
(** Registers live immediately before the [pos]-th instruction of the
    block (0-based).  [pos] equal to the block length gives [live_out].
    The first query at a block fills a table of every position by one
    backward sweep; later queries there are an array read. *)
