(** Fixed-size domain pool: run an array of independent tasks on up to
    [jobs] OCaml 5 domains and return their results in task order.

    The pool is the determinism foundation of the analysis engine: tasks
    may finish in any order, but results land in a slot array indexed by
    task, so the caller observes exactly the sequential result vector.
    With [jobs <= 1] (or a single task) no domain is spawned and the
    tasks run in the calling domain — the byte-identical sequential
    reference path. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    useful parallelism (1 on a single-core host). *)

val run :
  ?on_spawn_failure:(exn -> unit) ->
  ?batch:int ->
  jobs:int ->
  (unit -> 'a) array ->
  'a array
(** [run ~jobs tasks] executes every task exactly once and returns the
    results in task order.  Work is distributed by an atomic next-index
    counter from which idle domains claim contiguous {e batches} of
    tasks (one atomic operation per batch, not per task), sized so the
    pool still makes at least [4 × jobs] claims — load stays balanced
    while per-task handoff overhead disappears for small suites.  [batch]
    overrides the claim size.  [~batch:1] suits tasks of very unequal cost
    queued heaviest first: with the default size, the report's settle
    phase hands one domain every heavy task in its first claim, and a
    cold [report -j 2] took 0.372 s instead of 0.297 s (medians of 20
    alternating runs on a 2-vCPU host).

    If one or more tasks raise, every task still runs to completion (a
    failure must not abort unrelated benchmarks); then the exception of
    the {e lowest-indexed} failing task is re-raised with its backtrace —
    deterministic regardless of domain interleaving.  Callers that need
    per-task isolation wrap their task bodies in [result].

    A [Domain.spawn] failure does not abort the run: the pool degrades to
    however many workers did start (at minimum the calling domain — the
    sequential path), reporting each failure to [on_spawn_failure].
    Results are unaffected since any worker can claim any task. *)
