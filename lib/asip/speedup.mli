(** Cycle-count speedup estimation for a chosen chained-instruction set.

    The baseline machine executes each operation in its uarch latency
    (one cycle per op under {!Uarch.flat}, where baseline cycles equal
    the profile total exactly).  Each dynamic occurrence of a chosen
    chain executes in the chained instruction's cycles instead of its
    members' summed latencies; selection masked overlapping occurrences,
    so savings add. *)

type chain_timing = {
  ct_classes : string list;
  ct_delay : float;  (** Critical path through the cascade. *)
  ct_slack : float;  (** Clock period minus critical path. *)
}

type estimate = {
  baseline_cycles : int;  (** Latency-weighted dynamic cycles. *)
  saved_cycles : int;
  asip_cycles : int;
  speedup : float;  (** baseline / asip; 1.0 when nothing was chosen. *)
  total_area : float;  (** Area of all chosen chained units. *)
  uarch_name : string;
  clock : float;  (** Effective clock period of the uarch. *)
  chain_timings : chain_timing list;
      (** Critical-path slack of each chosen instruction, in selection
          order. *)
}

val agreement_tolerance : float
(** Pinned bound on the relative gap between this estimate's speedup and
    {!Tsim}'s measured speedup — asserted by the property tests and the
    timing smoke under both presets. *)

val estimate :
  ?uarch:Uarch.t ->
  prog:Asipfb_ir.Prog.t ->
  Select.choice list ->
  profile:Asipfb_exec.Profile.t ->
  estimate
(** [uarch] defaults to {!Uarch.flat}.  Baseline cycles are
    latency-weighted over [prog]'s instructions, whose [profile] is the
    run the choices were selected from. *)
