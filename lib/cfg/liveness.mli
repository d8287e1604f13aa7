(** Backward liveness dataflow over a {!Cfg.t}. *)

type t

val compute : Cfg.t -> t

val live_in : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers live at block entry. *)

val live_out : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers live at block exit (union of successors' live-in). *)

val live_before : t -> block:int -> pos:int -> Asipfb_ir.Reg.Set.t
(** Registers live immediately before the [pos]-th instruction of the
    block (0-based).  [pos] equal to the block length gives [live_out].
    The first query at a block fills a table of every position by one
    backward sweep; later queries there are an array read. *)
