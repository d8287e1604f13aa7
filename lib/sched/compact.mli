(** ASAP compaction of a block into VLIW cycles.

    Assigns each operation the earliest cycle consistent with the block's
    dependence edges (unlimited resources, unit latency for value flow).
    Two flow-dependent operations in consecutive cycles are the candidates
    the chaining detector considers mergeable into one chained cycle. *)

type t = {
  ddg : Ddg.t;
  cycle : int array;  (** ASAP cycle of each op position. *)
  length : int;  (** Schedule length in cycles (0 for an empty block). *)
}

val schedule : Asipfb_ir.Instr.t array -> t
(** Intra-iteration schedule of one block's ops. *)

val ops_per_cycle : t -> float
(** Instruction-level parallelism of the compacted block: ops / cycles
    (0 for an empty block). *)

val slack : t -> int array
(** Per-op ALAP − ASAP. *)
