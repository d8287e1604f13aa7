(** The parallel analysis engine: per-benchmark / per-opt-level pipeline
    analysis as independent tasks on a {!Pool} of domains.  Each result
    kind keeps its values in an {!Asipfb_util.Memo} and persists them
    through a content-keyed {!Cache}, so repeated artifacts and repeated
    CLI invocations reuse results instead of recomputing.

    {2 Task graph}

    Analyzing a suite of [n] benchmarks is [n] {e base} tasks (frontend
    compile + profiling simulation), [n × 3] {e sched} tasks (one
    [Schedule.optimize] per optimization level, on the base task's
    program) and, with a verify mode, the verify tasks below.  Every
    task is a keyed task ({!run_task}) that pulls its inputs through
    one per-call {!Asipfb_util.Memo} before its own supervised body runs: sched pulls
    base, every verify task pulls its sched.  {!analyze_all} submits
    them all as one {!Pool.run} on at most [min jobs n] domains (a call
    starts with [n] runnable bases); whoever asks for an input first
    computes it, overlapping askers wait for that value, so no task
    waits at a barrier.  Results are assembled in input order, so the
    output is byte-identical to the sequential path regardless of how
    domains interleave.

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

    With [~verify:`Ir], one task per benchmark runs the static checkers
    of {!Asipfb_verify}: the mini-C lint on the source
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
    reference path.  [cache] (default [true]) keeps every computed value
    in memory; [cache_dir] additionally persists entries on disk for
    reuse across processes.  [cache:false] disables both.

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
(** The engine payload schema revision (e.g. ["asipfb-engine-5"]) — a
    component of every content key, exported so external surfaces (the
    service daemon's [stats] response, the bench baseline) can report
    which analysis schema produced their numbers. *)

val supervisor : t -> Asipfb_supervise.Supervise.t
(** The engine's supervisor — source of the retry/quarantine/degradation
    event report and counters. *)

type cache_stats = {
  hits : int;  (** Served from the kind's memo. *)
  disk_hits : int;  (** Loaded from the cache directory. *)
  misses : int;  (** Computed fresh. *)
  stores : int;  (** Written to disk. *)
  corrupt : int;  (** Disk entries that failed verification (healed). *)
  io_errors : int;  (** [Sys_error]s that disabled persistence. *)
}
(** One kind's counters: its memo's hits and its {!Cache}'s disk
    counters.  With [cache:false] every counter stays 0. *)

type stats = {
  base : cache_stats;  (** Compile+profile payloads (12 per suite run). *)
  sched : cache_stats;  (** Per-level schedules (36 per suite run). *)
  verify : cache_stats;
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

val verify_tv_key :
  ?uarch:string ->
  Asipfb_bench_suite.Benchmark.t -> Asipfb_sched.Opt_level.t -> string
(** Content key of one (benchmark, level) translation-validation
    result. *)

(** {2 Keyed tasks}

    Every computation of the engine is a keyed task: base, sched and
    verify payloads, and the results derived from an analysis — a
    transformed program variant, an ASIP product, a detection query.
    The derived kinds' counters are not part of {!stats}; callers charge
    them to {!Metrics} stages. *)

type 'a kind
(** One result kind: an {!Asipfb_util.Memo} over a payload {!Cache},
    under the engine's settings.  With the cache on the memo keeps every
    value; with [cache:false] it keeps none, so only overlapping asks
    share a computation. *)

val kind : t -> string -> 'a kind
(** [kind t label] — a fresh kind whose cache events name [label]. *)

val content_key : string list -> string
(** Digest of the engine schema revision and [parts], the key scheme of
    every payload ({!source_key}, {!sched_key}, …). *)

type 'a cell = ('a, exn * Printexc.raw_backtrace) result
(** A settled result; a failure keeps the backtrace of its last
    attempt. *)

val run_task :
  t -> 'a kind -> ?group:string -> key:string -> name:string ->
  (Asipfb_supervise.Supervise.ctx -> 'a) -> 'a cell
(** The kind's memo, then disk, then compute.  Only the asker that
    leads [key] in the memo runs the task, under the supervisor; a memo
    hit or a join with an overlapping leader returns before supervision
    (no task is counted, no chaos decision is drawn, and a value
    computed before its group's quarantine is still served).  [name]
    labels the task's supervision events and is its chaos key, so each
    key needs its own name.  [group] (default [name]) is the task's
    supervision group, whose quarantine it shares; the body gets the
    attempt's {!Asipfb_supervise.Supervise.ctx}.  A failure is not
    kept. *)

val joined : t -> int
(** Base, sched and verify asks so far that waited on an overlapping
    caller's computation of the same key instead of computing. *)

val value : 'a cell -> 'a
(** The result, or its failure re-raised with its backtrace. *)

val analyze :
  t -> ?verify:verify_mode -> Asipfb_bench_suite.Benchmark.t -> analysis
(** Steps 1–3 for one benchmark, cached, in the calling domain (one
    benchmark gives {!analyze_all} one runnable task to start from).
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
    simulation runs under its own fault stream, seeded from the
    config's seed and the benchmark name (so results are independent of
    order and reproducible from one seed), and the benchmark's
    expected-output self-check turns silent corruption into an [Error]
    carrying a {!Asipfb_diag.Diag.Diag_error} with injection counters. *)
