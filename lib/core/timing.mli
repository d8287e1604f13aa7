(** The ASIP product — the chained instruction set selected from the
    profile, fused into the code and measured against the base program —
    and the timing-closed feedback report built from it: estimated vs.
    measured speedup of one benchmark under one machine description.

    {!design} and {!measure} are the only code that runs select →
    codegen → target simulation.  {!of_analysis} backs the CLI's
    [design --json]/[report timing] surfaces and the daemon's [timing]
    op, so offline [--json] output and daemon responses are built from
    the same value (and the service encoders render them
    byte-identically).

    The report carries the selection's clock story — the critical path
    and slack of every chosen chained instruction, plus the structured
    rejections of candidates that failed to close timing — alongside the
    counting estimate and the cycle-accurate measurement. *)

type chain_report = {
  cr_mnemonic : string;  (** ISA mnemonic, e.g. ["CHN_MUL_ADD"]. *)
  cr_classes : string list;
  cr_delay : float;  (** Critical path through the cascade. *)
  cr_slack : float;  (** Clock period minus critical path. *)
  cr_cycles : int;  (** Cycles one chained execution costs. *)
  cr_latency_sum : int;  (** Baseline latencies the chain absorbs. *)
}

type report = {
  t_benchmark : string;
  t_level : Asipfb_sched.Opt_level.t;
  t_uarch : string;
  t_clock : float;  (** Effective clock period (after any override). *)
  t_baseline_cycles : int;  (** Latency-weighted baseline cycles. *)
  t_asip_cycles : int;  (** Estimated cycles with the chosen ISA. *)
  t_estimated_speedup : float;
  t_measured_cycles : int;  (** Tsim cycles under the uarch. *)
  t_measured_speedup : float;
  t_total_area : float;
  t_chains : chain_report list;  (** Chosen instructions, in order. *)
  t_rejected : Asipfb_diag.Diag.t list;
      (** Clock-violation rejections (kind ["clock-violation"]). *)
}

val uarch_of : ?clock:float -> string -> (Asipfb_asip.Uarch.t, string) result
(** Resolve a preset name and optional clock override; [Error] names the
    unknown preset and lists the known ones. *)

(** {1 The product path}

    The chained instruction set is built by one path: {!design} selects
    it from the profile and prices it, {!measure} fuses it into the code
    and runs it on the target simulator.  Every report, the CLI's
    [design] command and the daemon's [timing] op go through these two. *)

type design = {
  uarch : Asipfb_asip.Uarch.t;  (** The machine it was selected for. *)
  choices : Asipfb_asip.Select.choice list;  (** In selection order. *)
  rejected : Asipfb_diag.Diag.t list;
      (** Clock-violation rejections (kind ["clock-violation"]). *)
  estimate : Asipfb_asip.Speedup.estimate;  (** The counting estimate. *)
}

val design :
  ?uarch:Asipfb_asip.Uarch.t ->
  ?area:float ->
  Pipeline.analysis ->
  Asipfb_sched.Opt_level.t ->
  design
(** Select chained instructions on the [level] schedule under [uarch]
    (default {!Asipfb_asip.Uarch.flat}) and area budget [area] (default
    {!Asipfb_asip.Select.default_config}'s), and estimate their speedup. *)

val measure : Pipeline.analysis -> design -> Asipfb_asip.Tsim.outcome
(** Generate the target code for the design's choices, run it on the
    benchmark's inputs under the design's uarch, and check every output
    region against the base program's run ({!Asipfb_exec.Value.close}).
    @raise Asipfb_diag.Diag.Diag_error (stage [Verification], context
      [kind=asip-output-mismatch], [benchmark], [region]) on a mismatch.
    @raise Asipfb_asip.Tsim.Runtime_error if the target program traps. *)

val of_analysis :
  ?uarch:Asipfb_asip.Uarch.t ->
  ?area:float ->
  Pipeline.analysis ->
  Asipfb_sched.Opt_level.t ->
  report
(** {!design} then {!measure}, as one report.
    @raise Asipfb_diag.Diag.Diag_error as {!measure}.
    @raise Asipfb_asip.Tsim.Runtime_error if the target program traps. *)

val agreement : report -> float
(** Relative disagreement between the measured and estimated speedups,
    [|measured - estimated| / estimated]. *)

val agrees : report -> bool
(** [agreement r <= Asipfb_asip.Speedup.agreement_tolerance] — the bound
    the test suite and [scripts/timing_smoke.sh] pin. *)

val to_text : report -> string
(** Human rendering: header line, per-chain timing lines, rejections. *)
