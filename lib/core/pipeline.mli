(** The complete analysis pipeline of the paper's Figure 2, packaged:
    compile a benchmark (step 1), profile it on its sample data (step 2),
    optimize at the three levels (step 3), and expose sequence detection
    and coverage over the results (step 4).

    Since the engine PR, analysis runs through
    {!Asipfb_engine.Engine} — a domain pool with a content-keyed memo
    cache — and step-4 entry points consume a {!Query.t} record instead
    of duplicated optional-argument signatures. *)

type analysis = Asipfb_engine.Engine.analysis = {
  benchmark : Asipfb_bench_suite.Benchmark.t;
  prog : Asipfb_ir.Prog.t;  (** Unoptimized 3-address code. *)
  profile : Asipfb_exec.Profile.t;  (** From the unoptimized run. *)
  outcome : Asipfb_sim.Interp.outcome;
  scheds : (Asipfb_sched.Opt_level.t * Asipfb_sched.Schedule.t) list;
      (** One optimized program graph per level. *)
  verify : Asipfb_diag.Diag.t list;
      (** Verify-checkpoint findings ({!Asipfb_verify}); [[]] unless the
          analysis ran with [?verify] set to [`Ir], [`Full] or [`Tv]. *)
}

val analyze : Asipfb_bench_suite.Benchmark.t -> analysis
(** Run steps 1–3 (sequentially, uncached — the reference path; use
    {!run_suite} with an engine for parallel or cached analysis).
    @raise Asipfb_sim.Interp.Runtime_error or front-end exceptions on a
    broken benchmark (suite bugs). *)

val sched : analysis -> Asipfb_sched.Opt_level.t -> Asipfb_sched.Schedule.t
(** The optimized graph for one level. *)

(** {1 Step-4 queries}

    One record describes what to ask of an analysis; every step-4 entry
    point consumes it. *)

module Query : sig
  type t = {
    level : Asipfb_sched.Opt_level.t;
    length : int;  (** Sequence length to detect (2–5 in the paper). *)
    min_freq : float option;
        (** Report threshold in percent; [None] = detector default. *)
    budget : int option;
        (** Branch-and-bound node budget; [None] = exact search. *)
  }

  val make :
    ?length:int -> ?min_freq:float -> ?budget:int ->
    Asipfb_sched.Opt_level.t -> t
  (** [length] defaults to 2. *)
end

val detect_report : analysis -> Query.t -> Asipfb_chain.Detect.report
(** Step 4 for one query: detected sequences plus whether the
    branch-and-bound search completed ([Exact]) or degraded to the
    greedy scan ([Budget_truncated]).  Wall-clock is charged to
    {!Asipfb_engine.Metrics.global} under ["detect"]. *)

val detect : analysis -> Query.t -> Asipfb_chain.Detect.detected list
(** [(detect_report a q).detections]. *)

val coverage :
  ?config:Asipfb_chain.Coverage.config ->
  analysis -> Query.t -> Asipfb_chain.Coverage.result
(** Section 7's iterative coverage for [q.level]; [q.budget] overrides
    [config.budget] when set ([q.length] and [q.min_freq] are not used —
    coverage explores [config.lengths]). *)

(** {1 Structured diagnostics} *)

val diag_of_exn_opt : exn -> Asipfb_diag.Diag.t option
(** Convert any exception a pipeline stage can raise (frontend, simulator,
    timing simulator, registry lookup, [Failure],
    {!Asipfb_diag.Diag.Diag_error}) into a structured diagnostic; [None]
    for unrecognised exceptions. *)

val diag_of_exn : exn -> Asipfb_diag.Diag.t
(** Total version of {!diag_of_exn_opt}: unrecognised exceptions become
    stage-[Driver] diagnostics via {!Asipfb_diag.Diag.of_unknown_exn}. *)

val analyze_result :
  ?verify:Asipfb_engine.Engine.verify_mode ->
  ?faults:Asipfb_exec.Fault.config ->
  Asipfb_bench_suite.Benchmark.t ->
  (analysis, Asipfb_diag.Diag.t) result
(** {!analyze} with failures as diagnostics (tagged with the benchmark
    name).  With [faults], the simulation runs under a seeded fault
    injector and the benchmark's expected-output self-check turns silent
    corruption into an [Error] with injection counts in its context.
    With [verify], the static checkers run as an extra phase and their
    findings land in {!analysis.verify}. *)

(** {1 The suite entry point} *)

type failure = {
  failed_benchmark : string;
  diag : Asipfb_diag.Diag.t;
}

val classify_failure : failure -> [ `Timeout | `Crash | `Quarantined ]
(** [`Timeout] when the diagnostic is tagged [kind=timeout] — fuel
    exhaustion ({!Asipfb_sim.Interp.Fuel_exhausted}) or a watchdog abort
    ({!Asipfb_sim.Interp.Watchdog_timeout}), i.e. a likely infinite loop,
    a fault-injection fuel cap, or a wedged task; [`Quarantined] when the
    supervisor skipped the benchmark after repeated failures
    ([kind=quarantined]); [`Crash] for every other failure.  Lets suite
    runners report hangs and quarantines separately from genuine
    errors. *)

type suite_report = {
  analyses : analysis list;  (** Benchmarks that completed, suite order. *)
  failures : failure list;  (** Isolated per-benchmark failures. *)
}

val run_results :
  ?engine:Asipfb_engine.Engine.t ->
  ?verify:Asipfb_engine.Engine.verify_mode ->
  ?faults:Asipfb_exec.Fault.config ->
  ?benchmarks:Asipfb_bench_suite.Benchmark.t list ->
  unit ->
  (Asipfb_bench_suite.Benchmark.t * (analysis, failure) result) list
(** Per-benchmark results in input order, failures converted to
    {!failure} records in place (never raising) — the streaming building
    block for batch-at-a-time consumers like
    {!Asipfb_corpus.Corpus.run}, which needs each benchmark's result
    positioned rather than partitioned.  {!run_suite} with [`Isolate] is
    the partitioned view of the same results. *)

val run_suite :
  ?engine:Asipfb_engine.Engine.t ->
  ?verify:Asipfb_engine.Engine.verify_mode ->
  ?faults:Asipfb_exec.Fault.config ->
  ?benchmarks:Asipfb_bench_suite.Benchmark.t list ->
  on_error:[ `Raise | `Isolate ] ->
  unit ->
  suite_report
(** The one suite entry point: analyze [benchmarks] (default: the whole
    Table 1 suite) on [engine] (default: {!Asipfb_engine.Engine.sequential},
    i.e. one domain, no cache).  [`Raise] propagates the first failing
    benchmark's exception, in suite order, after every benchmark ran;
    [`Isolate] converts each failure into a {!failure} record while the
    rest of the suite completes.  Output is byte-identical for any
    [engine]: results are assembled in suite order and every task is
    deterministic.  Per-benchmark fault streams are derived from
    [faults.seed] and the benchmark name, so a fixed seed reproduces the
    same failures regardless of suite order, subset, or parallelism. *)
