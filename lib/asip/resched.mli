(** Schedule-level speedup estimation for a chosen chain set.

    The counting estimate in {!Speedup} assumes the machine executes one
    operation per cycle; on a compacted VLIW schedule the win from chaining
    is different — a chained pair collapses two *dependence levels* into
    one, shortening critical paths rather than just removing issue slots.
    This module recomputes each block's ASAP schedule with the selected
    chains' flow edges given zero latency (the pair shares one chained
    cycle) and reports dynamic cycles before/after, weighted by block
    execution counts.

    Fusing is applied per static occurrence inside ordinary blocks; loop
    kernels are measured by their intra-iteration schedule (carried edges
    bound the steady state but the per-iteration critical path is the
    dominant term for these kernels). *)

type estimate = {
  base_cycles : int;  (** Dynamic cycles of the compacted schedule. *)
  chained_cycles : int;  (** Same schedule with chain edges collapsed. *)
  speedup : float;
}

val estimate :
  ?uarch:Uarch.t ->
  Asipfb_sched.Schedule.t ->
  profile:Asipfb_exec.Profile.t ->
  choices:Select.choice list ->
  detections:Asipfb_chain.Detect.detected list ->
  estimate
(** [estimate sched ~profile ~choices ~detections] — [detections] must be
    the detector output the [choices] were made from (it carries the
    static occurrences whose edges are collapsed).  Flow edges and issue
    costs carry [uarch]'s per-opcode latencies (default {!Uarch.flat},
    where every op costs one cycle). *)
