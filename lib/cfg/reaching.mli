(** Reaching definitions and def-use chains.

    A definition is identified by the opid of the defining instruction.
    The analysis is the classic forward may-dataflow: a definition reaches
    a point if some path from it to the point contains no other definition
    of the same register.  Def-use chains link each definition to every
    use it can reach — the whole-function counterpart of the per-block
    dependence edges in the scheduler.

    The fact maps each register to its reaching definitions, so a
    definition's transfer is one map update.  Queries inside a block read
    a per-block table of the fact before each position, built by one
    forward sweep the first time the block is queried; every later query
    at that block is a single map lookup. *)

type t

val compute : Cfg.t -> t

val reach_in : t -> int -> int list
(** Opids of definitions reaching the block's entry, ascending. *)

val reach_out : t -> int -> int list

val defs_reaching_use :
  t -> block:int -> pos:int -> reg:Asipfb_ir.Reg.t -> int list
(** Definitions of [reg] that may reach the use at the [pos]-th
    instruction of [block] (0-based), ascending opids.  Parameters are not
    definitions and contribute nothing. *)

val du_chains : t -> (int * (int * int) list) list
(** For every defining instruction: [(def opid, uses)] where each use is
    [(block, pos)] of an instruction reading the defined register with
    that definition reaching it.  Deterministic: sorted by def opid, each
    use list sorted by [(block, pos)] — identical output for any domain
    count or suite order. *)

val du_chains_opids : t -> (int * int list) list
(** {!du_chains} with uses as instruction opids: [(def opid, use opids)],
    sorted by def opid with each use list deduplicated and ascending —
    an opid-keyed form that, unlike block positions, survives
    rescheduling.  Only the tests call it today. *)

val single_def_uses : t -> int list
(** Opids of definitions that are the unique reaching definition at every
    one of their uses — the candidates classic forward substitution could
    rewrite. *)
