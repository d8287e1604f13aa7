(** Seeded corpus scale-out: run the full analysis pipeline over a
    deterministically generated mini-C program population, streaming
    per-program results in bounded batches on the parallel engine.

    A corpus is described by three integers — [(seed, count, size)] —
    and nothing else: the same spec always produces byte-identical
    program sources ({!Gen}), and analysis artifacts are byte-identical
    for any job count (the engine's determinism contract).  Failures are
    isolated per program and classified (crash / timeout / quarantined)
    exactly like suite benchmarks; the whole run executes under the
    engine's supervision policy (retry, watchdog, quarantine, chaos). *)

type spec = { seed : int; count : int; size : int }

val spec : ?size:int -> seed:int -> count:int -> unit -> spec
(** [size] defaults to {!Gen.default_size} and is clamped to ≥ 3.
    @raise Invalid_argument on a negative [count]. *)

val benchmarks : spec -> Asipfb_bench_suite.Benchmark.t list
(** The corpus population, in index order: program [i] is
    [Gen.benchmark ~seed ~size ~index:i ()]. *)

type outcome = {
  benchmark : Asipfb_bench_suite.Benchmark.t;
  result :
    (Asipfb.Pipeline.analysis * Asipfb_chain.Detect.detected list,
     Asipfb.Pipeline.failure)
    result;
      (** The analysis plus its detected sequences under the run's
          query, or the isolated structured failure. *)
}

type summary = {
  total : int;
  ok : int;
  crashed : int;
  timeouts : int;
  quarantined : int;
  dynamic_ops : int;
      (** Total dynamic operations across all successful programs
          (corpus-wide profile total — the traffic denominator). *)
  verify_findings : int;
      (** Static-verifier findings summed over the corpus; [0] when the
          run's [verify] mode is [`Off]. *)
  chains : (string * float) list;
      (** Traffic-weighted chain histogram: each detected sequence's
          share of {e corpus-wide} dynamic operations (a sequence at
          f% of one program's time contributes f% of that program's
          operations), in percent, sorted descending (ties by name).
          This is the multi-application ISA-selection signal. *)
}

val run :
  engine:Asipfb_engine.Engine.t ->
  ?verify:Asipfb_engine.Engine.verify_mode ->
  ?query:Asipfb.Pipeline.Query.t ->
  ?batch:int ->
  ?on_result:(outcome -> unit) ->
  Asipfb_bench_suite.Benchmark.t list ->
  summary
(** Analyze the population in batches of [batch] (default
    [max 32 (8 × jobs)]) via {!Asipfb.Pipeline.run_results}, invoking
    [on_result] once per program {e in index order} as each batch
    completes — memory stays bounded by the batch, not the corpus.
    Aggregation is order-deterministic, so the summary (and every
    [on_result] payload) is byte-identical for any [jobs]/[batch]. *)

val run_spec :
  engine:Asipfb_engine.Engine.t ->
  ?verify:Asipfb_engine.Engine.verify_mode ->
  ?query:Asipfb.Pipeline.Query.t ->
  ?batch:int ->
  ?on_result:(outcome -> unit) ->
  spec ->
  summary
(** [run ~engine (benchmarks spec)]. *)

val render_summary : ?top:int -> spec -> summary -> string
(** Deterministic human-readable summary; [top] (default 10) bounds the
    chain-histogram lines. *)
