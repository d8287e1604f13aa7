(** Regeneration of every table and figure in the paper's evaluation,
    plus the two extension studies DESIGN.md calls out.  Each artifact has
    a data accessor (for tests and further analysis) and a rendered form
    (for the bench harness and CLI). *)

type suite = Pipeline.analysis list

val table1 : unit -> string
(** Table 1: benchmark name, source lines, description, data input. *)

val combined :
  suite -> level:Asipfb_sched.Opt_level.t -> length:int ->
  Asipfb_chain.Combine.entry list
(** Family-merged detection per benchmark, combined with equal weights —
    the data behind Figures 3/4 and Table 2. *)

val figure_combined : suite -> length:int -> string
(** Figure 3 (length 2) / Figure 4 (length 4): one frequency-vs-rank curve
    per optimization level, plus the top sequences per level. *)

val table2 : suite -> string
(** Table 2: the paper's five example sequences at the three levels. *)

val per_benchmark :
  suite -> level:Asipfb_sched.Opt_level.t -> length:int -> min_freq:float ->
  (string * Asipfb_chain.Detect.detected list) list
(** Per-benchmark detections (exact classes, not family-merged). *)

val figure_per_benchmark : suite -> length:int -> string
(** Figure 5 (length 2) / Figure 6 (length 4): per-benchmark bars of
    detected sequences with frequency ≥ 5% at level O1. *)

val table3 : suite -> string
(** Table 3: iterative coverage with (O1) and without (O0) parallelizing
    optimizations, on the paper's five detailed benchmarks. *)

val table3_rows :
  suite ->
  (string * (bool * Asipfb_chain.Coverage.result) list) list
(** (benchmark, [(optimized?, result)]) for sewha, feowf, bspline, edge,
    iir. *)

val ilp_report : suite -> string
(** Extension X1: per-benchmark ops/cycle after compaction at each level —
    the multiple-issue characterization the paper's conclusion proposes. *)

val asip_report : ?uarch:Asipfb_asip.Uarch.t -> suite -> string
(** Extension X2: chained-instruction selection under an area budget and
    the estimated per-benchmark cycle-count speedup ({!Timing.design} at
    O1).  Selection is latency-weighted and clock-vetoed under [uarch]
    (default {!Asipfb_asip.Uarch.flat}). *)

val vliw_report : ?uarch:Asipfb_asip.Uarch.t -> suite -> string
(** Extension X3: resource-constrained multiple-issue characterization —
    estimated dynamic cycles and speedup at issue widths 1/2/4/8 over the
    O1-transformed code (the paper's proposed next feedback channel).
    List scheduling uses [uarch]'s per-opcode latencies (default
    {!Asipfb_asip.Uarch.flat}) as DDG edge weights. *)

val resched_report : ?uarch:Asipfb_asip.Uarch.t -> suite -> string
(** Extension X4: schedule-level speedup of the selected chain set
    (critical-path shortening on the compacted schedule) next to the
    counting estimate of {!Timing.design} — how much of the win survives
    when the machine already exploits ILP. *)

val ablation_pipelining : suite -> string
(** Ablation A1: length-2 detection at O1 with loop-carried search enabled
    (the paper's loop pipelining) versus disabled (detector confined to one
    iteration).  Quantifies how much of the exposure Figure 3 credits to
    pipelining. *)

val ablation_cleanup : suite -> string
(** Ablation A2: detection totals when the classic scalar cleanups
    (constant folding, copy propagation, DCE) run before the study —
    checks that the reported sequences are not lowering artifacts. *)

val codegen_report : ?uarch:Asipfb_asip.Uarch.t -> suite -> string
(** Extension X5: retargeted code generation — fuse the selected chains in
    the actual code, execute on the ASIP target simulator, and report the
    *measured* cycles, chained-instruction usage, and speedup next to the
    counting estimate ({!Timing.design} then {!Timing.measure}).
    @raise Asipfb_diag.Diag.Diag_error if a target's outputs differ from
      the base program's. *)

val export_csv : suite -> dir:string -> string list
(** Write the raw data behind the main artifacts as CSV files into [dir]
    (created if missing): [combined_lengthN.csv] per length 2–5 (sequence,
    level, frequency), [table2.csv], [coverage.csv], [ilp.csv].  Returns
    the paths written. *)

val ablation_motion : suite -> string
(** Ablation A3: detection at O1 with and without the physical percolation
    motion (pipelined kernels stay on in both) — separates what code
    motion contributes from what the loop-carried search contributes. *)

val opmix_report : suite -> string
(** Supplementary: McDaniel-style dynamic single-operation mix per
    benchmark — the per-op baseline the paper's sequence analysis
    generalizes. *)

val extra_report : suite -> string
(** Retargeting study: the whole feedback loop re-applied to a second
    application mix (matmul, xcorr, acs, quant — see
    {!Asipfb_bench_suite.Extra}), through the same {!Timing.design} and
    {!Timing.measure} path.  The [suite] argument is unused (the mix is
    fixed) but kept for uniformity with the other artifacts. *)

val timing_report : ?uarch:Asipfb_asip.Uarch.t -> suite -> string
(** Extension X6: the timing-closure feedback report — one
    {!Timing.to_text} block per benchmark at O1 under the given machine
    description (default flat): estimated vs. measured speedup, per-chain
    critical path and slack against the clock, and the structured
    clock-violation rejections. *)

val validation_unroll : suite -> string
(** Validation V1: detection stability under physical loop unrolling.  The
    loop-carried kernel analysis claims cross-iteration chains; after
    physically unrolling every pipelinable loop once (and re-profiling the
    unrolled program), the same chains must appear at similar frequencies.
    Reports the top combined length-2 sequences side by side. *)

(** {1 The report} *)

type artifact = {
  name : string;
  needs : unit -> Tasks.need list;
      (** The keyed results [render] asks for.  Declaring them may itself
          analyse (the [extra] entry's mix); it never raises. *)
  render : unit -> string;
}
(** One artifact of [asipfb report]. *)

val artifacts :
  ?uarch:Asipfb_asip.Uarch.t ->
  ?engine:Asipfb_engine.Engine.t ->
  ?on_skip:(Pipeline.failure -> unit) ->
  suite ->
  artifact list
(** Every artifact of [asipfb report], in print order.  Building the
    table computes nothing.  Each entry formats the same text as its
    standalone function above (with [?uarch] passed to the uarch-aware
    ones), but gathers its detections, ASIP products and program variants
    from one {!Tasks} store on [engine] (default
    {!Asipfb_engine.Engine.sequential}), so each result is computed once
    per table and entries may render concurrently.  The [extra] entry
    analyses its mix on [engine] too; with [on_skip] (what [--keep-going]
    passes) a mix benchmark that fails is left out of it and reported to
    [on_skip] once, as the suite's own failed benchmarks are, and without
    it the entry raises the first failure. *)

val render_one : jobs:int -> artifact -> string
(** Settle the entry's needs on up to [jobs] domains, then render it. *)

val render_report : jobs:int -> artifact list -> (string -> unit) -> unit
(** [render_report ~jobs table print] settles every need of [table] as
    one {!Tasks.settle} phase, renders every entry as a second
    {!Asipfb_engine.Pool.run} phase on up to [jobs] domains (each render
    charged to the ["artifact"] stage of {!Asipfb_engine.Metrics.global}),
    then prints them in table order: ["==== name ====\n"] followed by the
    text and a newline.  If entries raise — a render's own failure or a
    failed need it consumes — the output stops after the header of the
    lowest-indexed failing entry and its exception is re-raised with its
    backtrace: the same bytes and exception for every [jobs]. *)
