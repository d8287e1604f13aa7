(** The sequence detection analyzer — step 4 of the paper's pipeline.

    Enumerates, by branch-and-bound search over the optimized program
    graph, every operation sequence of a requested length that is suitable
    for implementation as a chained operation: consecutive members are
    linked by register flow (the result of each op feeds an operand of the
    next), every member is chain-eligible, only the last may be a store,
    and — at the optimizing levels — the members can be scheduled in
    strictly consecutive cycles (no other dependence path forces a larger
    separation).  At level 0 the search degenerates to the paper's baseline:
    literally adjacent instruction runs in the compiler-given order.

    Inside pipelined loop kernels the search follows loop-carried flow, so
    a producer in one iteration can chain with a consumer in the next —
    the mechanism behind the paper's add-multiply discovery.

    Every reported frequency is a percentage of total execution time
    (dynamic operation count), computed from the pre-optimization profile
    via preserved opids. *)

type config = {
  length : int;  (** Exact sequence length to search for (2–5 in the paper). *)
  min_freq : float;
      (** Report threshold in percent; also the branch-and-bound pruning
          bound. *)
  copies : int;
      (** Virtual unroll depth for loop kernels; sequences may cross the
          back edge up to [copies - 1] times.  Default length. *)
  banned : int list;
      (** Opids excluded from membership (used by coverage masking). *)
  budget : int option;
      (** Maximum branch-and-bound nodes to visit across a whole run;
          [None] (the default) means unbounded, exact search.  On
          exhaustion {!run_report} falls back to the greedy adjacency
          scan and tags its result [Budget_truncated]. *)
}

val default_config : length:int -> config
(** [min_freq = 0.5], [copies = length], [banned = \[\]],
    [budget = None]. *)

type completeness =
  | Exact  (** The full search space was explored. *)
  | Budget_truncated
      (** The node budget ran out; the result is the greedy fallback. *)

val completeness_to_string : completeness -> string

type occurrence = {
  opids : (int * int) list;
      (** (opid, iteration offset) per member, in chain order. *)
  count : int;  (** Joint dynamic execution count (min over members). *)
}

type detected = {
  classes : string list;  (** Member classes, e.g. ["multiply"; "add"]. *)
  freq : float;  (** Percent of execution time over all occurrences. *)
  occurrences : occurrence list;
}

val run :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t ->
  detected list
(** Detected sequences sorted by decreasing frequency, one entry per
    distinct class list, restricted to [freq >= config.min_freq].
    Equals [(run_report config sched ~profile).detections]. *)

type report = {
  detections : detected list;
  completeness : completeness;
      (** Whether [detections] is exact or the greedy fallback after
          budget exhaustion — so tables never silently lie. *)
}

val run_report :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t -> report
(** Budget-aware {!run}.  With [config.budget = None] the result is
    always [Exact]; level 0's linear scan never consumes budget. *)

val run_greedy :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t ->
  detected list
(** The greedy result alone: a linear scan for literally adjacent,
    flow-dependent runs in each scope's op order.  This is exactly what a
    [Budget_truncated] {!run_report} returns. *)

val display_name : detected -> string
(** "multiply-add" style display name. *)
