(** The optimized program graph handed to the sequence analyzer — output of
    step 3 in the paper's pipeline.

    Per function: the (possibly transformed) code, its CFG, an ASAP
    compaction per block, and the pipelined loop kernels.  A kernel is an
    innermost loop of at most two blocks (the header/body shape the
    front end's [while]/[for] lowering produces); its concatenated ops are
    analyzed with loop-carried dependence edges so the detector can follow
    data flow across the back edge — the paper's loop-pipelining effect. *)

type kernel = {
  kernel_blocks : int list;
      (** Block indices forming one iteration, in execution order. *)
  kernel_ops : Asipfb_ir.Instr.t array;
      (** Concatenation of those blocks' instructions. *)
  kernel_ddg : Ddg.t;  (** Built with [~carried:true]. *)
}

type func_sched = {
  func : Asipfb_ir.Func.t;
  cfg : Asipfb_cfg.Cfg.t;
  compacted : Compact.t array;  (** Indexed by block. *)
  kernels : kernel list;
}

type t = {
  prog : Asipfb_ir.Prog.t;  (** Post-transformation program. *)
  level : Opt_level.t;
  funcs : (string * func_sched) list;
}

val optimize : level:Opt_level.t -> Asipfb_ir.Prog.t -> t
(** O0: untouched.  O1: percolation motion, compaction, kernels.  O2:
    register renaming, then as O1.  The returned program validates and is
    observationally equivalent to the input. *)

val optimize_custom :
  ?rename:bool -> ?percolate:bool -> ?pipeline:bool ->
  Asipfb_ir.Prog.t -> t
(** Ablation entry point: choose each transformation independently (all
    default true).  The result carries [level = O1] semantics for the
    analyzer (dependence-based detection) regardless of which passes ran —
    except that [~pipeline:false] leaves no kernels, confining detection
    to single iterations. *)

val find_kernels : Asipfb_cfg.Cfg.t -> kernel list
(** Pipelinable innermost loops of a CFG (exposed for tests). *)

val func_sched : t -> string -> func_sched
(** @raise Not_found for an unknown function. *)

val ilp : t -> string -> float
(** Mean ops/cycle over the function's non-empty blocks after compaction
    (1.0 at O0 — sequential issue). *)
