module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Diag = Asipfb_diag.Diag
module Fault = Asipfb_exec.Fault
module Engine = Asipfb_engine.Engine
module Metrics = Asipfb_engine.Metrics

type analysis = Engine.analysis = {
  benchmark : Benchmark.t;
  prog : Asipfb_ir.Prog.t;
  profile : Asipfb_exec.Profile.t;
  outcome : Asipfb_sim.Interp.outcome;
  scheds : (Opt_level.t * Schedule.t) list;
  verify : Diag.t list;
}

let analyze (benchmark : Benchmark.t) : analysis =
  Engine.analyze (Engine.sequential ()) benchmark

let sched t level =
  match List.assoc_opt level t.scheds with
  | Some s -> s
  | None -> invalid_arg "Pipeline.sched: level not analyzed"

(* --- the query API ------------------------------------------------------ *)

module Query = struct
  type t = {
    level : Opt_level.t;
    length : int;
    min_freq : float option;
    budget : int option;
  }

  let make ?(length = 2) ?min_freq ?budget level =
    { level; length; min_freq; budget }
end

let detect_config (q : Query.t) =
  let config = Detect.default_config ~length:q.length in
  let config =
    match q.min_freq with
    | Some m -> { config with Detect.min_freq = m }
    | None -> config
  in
  match q.budget with
  | Some _ -> { config with Detect.budget = q.budget }
  | None -> config

(* Budget-aware detection: the report also says whether the
   branch-and-bound search completed or degraded to the greedy scan. *)
let detect_report t (q : Query.t) =
  Metrics.timed Metrics.global "detect" (fun () ->
      Detect.run_report (detect_config q) (sched t q.level) ~profile:t.profile)

let detect t q = (detect_report t q).Detect.detections

let coverage ?(config = Coverage.default_config) t (q : Query.t) =
  let config =
    match q.budget with
    | Some _ -> { config with Coverage.budget = q.budget }
    | None -> config
  in
  Metrics.timed Metrics.global "coverage" (fun () ->
      Coverage.analyze config (sched t q.level) ~profile:t.profile)

(* --- structured-diagnostic conversion ----------------------------------- *)

(* Normalise any exception a pipeline stage can raise into a structured
   diagnostic, preserving source positions where the subsystem has them. *)
let diag_of_exn_opt exn =
  match Asipfb_frontend.Frontend_diag.to_diag exn with
  | Some d -> Some d
  | None -> (
      match Asipfb_sim.Sim_diag.to_diag exn with
      | Some d -> Some d
      | None -> (
          match exn with
          | Asipfb_asip.Tsim.Runtime_error msg ->
              Some
                (Diag.make ~stage:Diag.Simulation
                   ~context:[ ("phase", "tsim") ]
                   ("runtime error: " ^ msg))
          | Asipfb_bench_suite.Registry.Unknown_benchmark msg ->
              Some (Diag.make ~stage:Diag.Driver msg)
          | Asipfb_supervise.Supervise.Quarantined
              { benchmark; failed_attempts } ->
              Some
                (Diag.make ~stage:Diag.Driver
                   ~context:
                     [ ("kind", "quarantined"); ("benchmark", benchmark);
                       ("failed_attempts", string_of_int failed_attempts) ]
                   (Printf.sprintf
                      "benchmark %s is quarantined after %d failed \
                       attempt(s); task skipped"
                      benchmark failed_attempts))
          | Asipfb_supervise.Chaos.Injected msg ->
              Some
                (Diag.make ~stage:Diag.Driver
                   ~context:[ ("kind", "chaos-injected") ]
                   msg)
          | Failure msg -> Some (Diag.make ~stage:Diag.Driver msg)
          | Diag.Diag_error d -> Some d
          | _ -> None))

let diag_of_exn exn =
  match diag_of_exn_opt exn with
  | Some d -> d
  | None -> Diag.of_unknown_exn exn

let analyze_result ?verify ?faults (benchmark : Benchmark.t) :
    (analysis, Diag.t) result =
  match
    Engine.analyze_all (Engine.sequential ()) ?verify ?faults [ benchmark ]
  with
  | [ (_, Ok a) ] -> Ok a
  | [ (_, Error exn) ] ->
      Error
        (Diag.with_context (diag_of_exn exn)
           [ ("benchmark", benchmark.name) ])
  | _ -> assert false

(* --- the single suite entry point --------------------------------------- *)

type failure = { failed_benchmark : string; diag : Diag.t }

(* A timeout (fuel exhaustion or watchdog expiry — likely an infinite
   loop, a fault-injection fuel cap, or a wedged task) is a different
   kind of suite failure than a crash, and a quarantined benchmark
   (skipped by the supervisor after repeated failures) is a third: the
   diagnostic's kind tag, stamped by Sim_diag / the supervisor, is the
   classification key. *)
let classify_failure (f : failure) : [ `Timeout | `Crash | `Quarantined ] =
  match List.assoc_opt "kind" f.diag.context with
  | Some "timeout" -> `Timeout
  | Some "quarantined" -> `Quarantined
  | _ -> `Crash

type suite_report = {
  analyses : analysis list;
  failures : failure list;
}

(* Per-benchmark results in input order, every failure already converted
   to a structured diagnostic — the streaming building block the corpus
   runner consumes batch by batch. *)
let run_results ?engine ?verify ?faults
    ?(benchmarks = Asipfb_bench_suite.Registry.all) () :
    (Benchmark.t * (analysis, failure) result) list =
  let engine =
    match engine with Some e -> e | None -> Engine.sequential ()
  in
  List.map
    (fun ((b : Benchmark.t), r) ->
      match r with
      | Ok a -> (b, Ok a)
      | Error exn ->
          let diag =
            Diag.with_context (diag_of_exn exn) [ ("benchmark", b.name) ]
          in
          (b, Error { failed_benchmark = b.name; diag }))
    (Engine.analyze_all engine ?verify ?faults benchmarks)

let run_suite ?engine ?verify ?faults
    ?(benchmarks = Asipfb_bench_suite.Registry.all)
    ~(on_error : [ `Raise | `Isolate ]) () : suite_report =
  let engine =
    match engine with Some e -> e | None -> Engine.sequential ()
  in
  match on_error with
  | `Raise ->
      (* Every benchmark already ran; fail on the first broken one, in
         suite order — deterministic regardless of domain interleaving. *)
      let results = Engine.analyze_all engine ?verify ?faults benchmarks in
      let analyses =
        List.map
          (fun (_, r) -> match r with Ok a -> a | Error exn -> raise exn)
          results
      in
      { analyses; failures = [] }
  | `Isolate ->
      let analyses, failures =
        List.fold_left
          (fun (oks, errs) (_, r) ->
            match r with
            | Ok a -> (a :: oks, errs)
            | Error f -> (oks, f :: errs))
          ([], [])
          (run_results ~engine ?verify ?faults ~benchmarks ())
      in
      { analyses = List.rev analyses; failures = List.rev failures }
