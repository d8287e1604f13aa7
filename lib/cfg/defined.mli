(** Definite assignment (must-define): the forward/must instance of
    {!Dataflow}.  A register is definitely assigned at a point iff every
    path from the entry assigns it first; parameters hold at the entry.
    Facts on unreachable blocks are vacuous: the whole universe of
    registers the function defines, uses or takes as parameters. *)

type t

val solve : Asipfb_ir.Func.t -> Cfg.t -> t
(** [solve f cfg]; the universe and parameters come from [f]. *)

val defined_in : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers definitely assigned at block entry. *)

val defined_out : t -> int -> Asipfb_ir.Reg.Set.t
(** Registers definitely assigned at block exit. *)

val refresh : t -> Cfg.t -> Asipfb_ir.Reg.t -> t
(** [refresh t cfg r] equals [solve f cfg] when [t] was solved for a CFG
    with the same graph and the same definition sites of every register
    but [r].  Only [r]'s fixpoint is re-solved. *)

val uninit_reads :
  Asipfb_ir.Func.t -> Cfg.t -> (int * Asipfb_ir.Instr.t * Asipfb_ir.Reg.t) list
(** [uninit_reads f cfg] lists every [(block, instr, register)] where
    [instr] reads [register] while some path from the entry reaches it
    without assigning it — in block order, then position, then operand
    order (each register once per instruction). *)
