(** The parallel analysis engine: per-benchmark / per-opt-level pipeline
    analysis as independent tasks on a {!Pool} of domains, backed by a
    content-keyed {!Cache} so repeated artifacts and repeated CLI
    invocations reuse results instead of recomputing.

    {2 Task graph}

    Analyzing a suite of [n] benchmarks is [n] {e base} tasks (frontend
    compile + profiling simulation) followed by [n × 3] {e sched} tasks
    (one [Schedule.optimize] per optimization level, depending only on
    the base task's program).  Each phase is an independent task array on
    the pool; results are assembled in suite order, so the output is
    byte-identical to the sequential path regardless of how domains
    interleave.

    {2 Cache keys}

    Every cache key is the hex digest of the engine schema revision, the
    payload kind, the machine-description (uarch) name, the benchmark
    name, its full mini-C source, and (for sched payloads) the
    optimization level.  A source edit, level change,
    or engine revision therefore changes the key — stale hits are
    impossible by construction, and invalidation needs no bookkeeping.
    Fault-injected base runs are never cached (their outcome depends on
    the injection config, which is not part of the key); sched payloads
    depend only on the compiled program and stay cacheable.

    Stage wall-clock is charged to {!Metrics.global} under ["frontend"],
    ["sim"], ["sched"], ["verify-ir"], ["verify-sched"] (IR checks on a
    schedule) and ["verify-tv"].

    {2 Verify checkpoint}

    With [~verify:`Ir], a third task phase runs the static checkers of
    {!Asipfb_verify} over each benchmark: the mini-C lint on the source
    and the IR dataflow/structural checks on the compiled program.
    [`Full] adds one task per (benchmark, level) running the IR dataflow
    checks on the optimized program.  [`Tv] adds, on top of [`Full], one
    translation-validation task per (benchmark, level) —
    {!Asipfb_verify.Equiv}'s semantic refinement proof, the only
    schedule verifier, with counterexample search on failure — charged
    to the ["verify-tv"] metrics stage.  Findings land in
    {!analysis.verify} (IR findings first, then per-level schedule IR
    checks, then per-level refinement, each in
    {!Asipfb_sched.Opt_level.all} order) and are cached under their own
    content keys. *)

type analysis = {
  benchmark : Asipfb_bench_suite.Benchmark.t;
  prog : Asipfb_ir.Prog.t;  (** Unoptimized 3-address code. *)
  profile : Asipfb_exec.Profile.t;  (** From the unoptimized run. *)
  outcome : Asipfb_sim.Interp.outcome;
  scheds : (Asipfb_sched.Opt_level.t * Asipfb_sched.Schedule.t) list;
      (** One optimized program graph per level, in {!Asipfb_sched.Opt_level.all} order. *)
  verify : Asipfb_diag.Diag.t list;
      (** Verify-checkpoint findings; [[]] when analyzed with [`Off]. *)
}

type verify_mode = Asipfb_verify.Verify.mode

type t

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?cache:bool ->
  ?policy:Asipfb_supervise.Supervise.Policy.t ->
  ?chaos:Asipfb_supervise.Chaos.config ->
  ?uarch:string ->
  unit ->
  t
(** [jobs] defaults to {!Pool.default_jobs}[ ()]; [1] is the sequential
    reference path.  [cache] (default [true]) enables the in-memory
    memo; [cache_dir] additionally persists entries on disk for reuse
    across processes.  [cache:false] disables both.

    [policy] (default {!Asipfb_supervise.Supervise.Policy.default})
    governs retry/backoff, the per-task watchdog, and quarantine; every
    task of {!analyze_all} runs under it.  [chaos] attaches the
    deterministic fault injector to the task and cache seams.

    [uarch] (default ["flat"]) names the machine description the run is
    analyzed under; it is folded into every content key, so timing models
    never share cache entries. *)

val sequential : unit -> t
(** [create ~jobs:1 ~cache:false ~policy:Policy.off ()] — recompute
    everything, in order, fail-fast: the behavior of the pre-engine
    pipeline. *)

val jobs : t -> int

val uarch : t -> string
(** Name of the machine description this engine keys its caches under. *)

val schema_revision : string
(** The engine payload schema revision (e.g. ["asipfb-engine-4"]) — a
    component of every content key, exported so external surfaces (the
    service daemon's [stats] response, the bench baseline) can report
    which analysis schema produced their numbers. *)

val supervisor : t -> Asipfb_supervise.Supervise.t
(** The engine's supervisor — source of the retry/quarantine/degradation
    event report and counters. *)

type stats = {
  base : Cache.stats;  (** Compile+profile payloads (12 per suite run). *)
  sched : Cache.stats;  (** Per-level schedules (36 per suite run). *)
  verify : Cache.stats;
      (** Verify findings (12 IR + 36 schedule IR checks per [`Full]
          suite run; [`Tv] adds 36 refinement payloads). *)
  supervise : Asipfb_supervise.Supervise.stats;
      (** Retry/quarantine/degradation accounting. *)
}

val stats : t -> stats
(** Hit/miss counters — the observable proof that a warm run skipped its
    analyze tasks. *)

val reset_stats : t -> unit

val source_key : ?uarch:string -> Asipfb_bench_suite.Benchmark.t -> string
(** Content key of the benchmark's base payload.  Includes the
    execution-core revision ([Asipfb_exec.Code.version]) alongside the
    engine schema.  [uarch] defaults to ["flat"], matching
    {!create}'s default. *)

val sched_key :
  ?uarch:string ->
  Asipfb_bench_suite.Benchmark.t -> Asipfb_sched.Opt_level.t -> string
(** Content key of one (benchmark, level) schedule payload. *)

val verify_ir_key :
  ?uarch:string -> Asipfb_bench_suite.Benchmark.t -> string
(** Content key of a benchmark's lint + IR-check findings. *)

val verify_sched_key :
  ?uarch:string ->
  Asipfb_bench_suite.Benchmark.t -> Asipfb_sched.Opt_level.t -> string
(** Content key of one (benchmark, level) schedule IR-check result. *)

val verify_tv_key :
  ?uarch:string ->
  Asipfb_bench_suite.Benchmark.t -> Asipfb_sched.Opt_level.t -> string
(** Content key of one (benchmark, level) translation-validation
    result. *)

val derive_faults :
  Asipfb_exec.Fault.config -> Asipfb_bench_suite.Benchmark.t ->
  Asipfb_exec.Fault.t
(** Per-benchmark fault stream: one PRNG per benchmark, derived from the
    suite seed and the benchmark name, so results are order-independent
    and reproducible from a single seed. *)

val analyze :
  t -> ?verify:verify_mode -> Asipfb_bench_suite.Benchmark.t -> analysis
(** Steps 1–3 for one benchmark (cached, parallel across levels).
    @raise exn whatever the failing pipeline stage raised. *)

val analyze_all :
  t ->
  ?verify:verify_mode ->
  ?faults:Asipfb_exec.Fault.config ->
  Asipfb_bench_suite.Benchmark.t list ->
  (Asipfb_bench_suite.Benchmark.t * (analysis, exn) result) list
(** The full task graph over a benchmark list, input order preserved.
    Failures are isolated per benchmark: a broken kernel yields [Error]
    while every other benchmark still completes.  With [faults], each
    simulation runs under {!derive_faults} and the benchmark's
    expected-output self-check turns silent corruption into an [Error]
    carrying a {!Asipfb_diag.Diag.Diag_error} with injection counters. *)
