(* Resilience layer: per-benchmark failure isolation, fault injection with
   self-check containment, and budget-bounded detection with graceful
   degradation — the acceptance tests for the diagnostics subsystem. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Fault = Asipfb_exec.Fault
module Diag = Asipfb_diag.Diag
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Opt_level = Asipfb_sched.Opt_level
module Pipeline = Asipfb.Pipeline

(* A deliberately broken benchmark: compiles cleanly, traps at runtime. *)
let broken : Benchmark.t =
  {
    name = "broken-div0";
    description = "deliberately broken (divides by zero)";
    data_input = "none";
    source = "int out[1]; void main() { int z = 0; out[0] = 1 / z; }";
    inputs = (fun () -> []);
    output_regions = [ "out" ];
  }

let fir () = Registry.find "fir"
let sewha () = Registry.find "sewha"

let test_analyze_result_ok () =
  match Pipeline.analyze_result (fir ()) with
  | Ok a ->
      Alcotest.(check int) "three levels" 3 (List.length a.scheds);
      Alcotest.(check bool) "profile populated" true
        (Asipfb_exec.Profile.total a.profile > 0)
  | Error d -> Alcotest.fail (Diag.to_string d)

let test_analyze_result_broken () =
  match Pipeline.analyze_result broken with
  | Ok _ -> Alcotest.fail "broken benchmark must not analyze"
  | Error d ->
      Alcotest.(check string) "exact diagnostic"
        "runtime error: integer division by zero" d.message;
      Alcotest.(check bool) "simulation stage" true
        (d.stage = Diag.Simulation);
      Alcotest.(check (option string)) "benchmark context"
        (Some "broken-div0")
        (List.assoc_opt "benchmark" d.context)

let test_suite_isolation () =
  (* One broken kernel yields one diagnostic; the rest of the suite
     completes. *)
  let r =
    Pipeline.run_suite
      ~benchmarks:[ fir (); broken; sewha () ]
      ~on_error:`Isolate ()
  in
  Alcotest.(check (list string)) "surviving analyses in order"
    [ "fir"; "sewha" ]
    (List.map (fun (a : Pipeline.analysis) -> a.benchmark.name) r.analyses);
  match r.failures with
  | [ f ] ->
      Alcotest.(check string) "failed benchmark" "broken-div0"
        f.failed_benchmark;
      Alcotest.(check string) "failure diagnostic"
        "runtime error: integer division by zero" f.diag.message
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one failure, got %d"
           (List.length fs))

(* --- fault injection ---------------------------------------------------- *)

let heavy_faults =
  { Fault.seed = 42; reg_corrupt_rate = 0.01; mem_fault_rate = 0.0;
    fuel_cap = None }

let test_fault_injection_contained () =
  (* At a corrupting rate, every fault either trips the expected-output
     self-check or traps in the interpreter — both become structured
     simulation diagnostics; nothing silently produces a wrong profile. *)
  let r =
    Pipeline.run_suite ~faults:heavy_faults
      ~benchmarks:[ fir (); sewha () ]
      ~on_error:`Isolate ()
  in
  Alcotest.(check (list string)) "exactly the injected failures"
    [ "fir"; "sewha" ]
    (List.map (fun (f : Pipeline.failure) -> f.failed_benchmark) r.failures);
  List.iter
    (fun (f : Pipeline.failure) ->
      Alcotest.(check bool)
        (f.failed_benchmark ^ " diag is simulation-stage") true
        (f.diag.stage = Diag.Simulation))
    r.failures

let test_fault_injection_deterministic () =
  let run () =
    let r =
      Pipeline.run_suite ~faults:heavy_faults
        ~benchmarks:[ fir (); sewha () ]
        ~on_error:`Isolate ()
    in
    List.map
      (fun (f : Pipeline.failure) ->
        (f.failed_benchmark, Diag.to_string f.diag))
      r.failures
  in
  Alcotest.(check (list (pair string string)))
    "fixed seed reproduces identical diagnostics" (run ()) (run ())

let test_fault_injection_disabled () =
  let r =
    Pipeline.run_suite ~faults:Fault.none ~benchmarks:[ fir () ]
      ~on_error:`Isolate ()
  in
  Alcotest.(check int) "no failures without faults" 0
    (List.length r.failures);
  Alcotest.(check int) "analysis completes" 1 (List.length r.analyses)

let test_fault_fuel_cap () =
  let faults = { Fault.none with fuel_cap = Some 100 } in
  match Pipeline.analyze_result ~faults (fir ()) with
  | Ok _ -> Alcotest.fail "fuel cap of 100 must exhaust fir"
  | Error d ->
      Alcotest.(check string) "premature fuel exhaustion diagnostic"
        "out of fuel (infinite loop?)" d.message;
      Alcotest.(check bool) "simulation stage" true
        (d.stage = Diag.Simulation);
      Alcotest.(check (option string)) "classified as a timeout"
        (Some "timeout")
        (List.assoc_opt "kind" d.context)

let test_self_check_clean_run () =
  let b = fir () in
  let o = Benchmark.run b in
  match Benchmark.self_check b o with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("clean run must self-check: " ^ msg)

(* --- search budgets and graceful degradation ---------------------------- *)

let shape ds =
  List.map (fun (d : Detect.detected) -> (d.classes, d.freq)) ds

let test_budget_truncation_equals_greedy () =
  let a = Pipeline.analyze (fir ()) in
  let exact =
    Pipeline.detect_report a (Pipeline.Query.make ~length:2 Opt_level.O1)
  in
  Alcotest.(check bool) "unbounded search is exact" true
    (exact.completeness = Detect.Exact);
  let truncated =
    Pipeline.detect_report a
      (Pipeline.Query.make ~length:2 ~budget:0 Opt_level.O1)
  in
  Alcotest.(check bool) "exhausted budget is tagged" true
    (truncated.completeness = Detect.Budget_truncated);
  let greedy =
    Detect.run_greedy
      (Detect.default_config ~length:2)
      (Pipeline.sched a Opt_level.O1)
      ~profile:a.profile
  in
  Alcotest.(check bool) "truncated result is the greedy result" true
    (shape truncated.detections = shape greedy);
  (* The greedy fallback is a (possibly strict) under-approximation. *)
  Alcotest.(check bool) "greedy finds no more than exact" true
    (List.length truncated.detections <= List.length exact.detections)

let test_large_budget_is_exact () =
  let a = Pipeline.analyze (fir ()) in
  let bounded =
    Pipeline.detect_report a
      (Pipeline.Query.make ~length:2 ~budget:10_000_000 Opt_level.O1)
  in
  let unbounded =
    Pipeline.detect_report a (Pipeline.Query.make ~length:2 Opt_level.O1)
  in
  Alcotest.(check bool) "large budget completes exactly" true
    (bounded.completeness = Detect.Exact);
  Alcotest.(check bool) "same detections" true
    (shape bounded.detections = shape unbounded.detections)

let test_o0_never_truncates () =
  (* Level 0 is a linear scan; even a zero budget cannot exhaust it. *)
  let a = Pipeline.analyze (fir ()) in
  let r =
    Pipeline.detect_report a
      (Pipeline.Query.make ~length:2 ~budget:0 Opt_level.O0)
  in
  Alcotest.(check bool) "O0 is always exact" true
    (r.completeness = Detect.Exact)

let test_coverage_budget_tagging () =
  let a = Pipeline.analyze (fir ()) in
  let exact = Pipeline.coverage a (Pipeline.Query.make Opt_level.O1) in
  Alcotest.(check bool) "default coverage is exact" true
    (exact.completeness = Detect.Exact);
  let config = { Coverage.default_config with budget = Some 0 } in
  let truncated =
    Pipeline.coverage ~config a (Pipeline.Query.make Opt_level.O1)
  in
  Alcotest.(check bool) "budgeted coverage is tagged" true
    (truncated.completeness = Detect.Budget_truncated)

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "analyze_result ok" `Quick test_analyze_result_ok;
        Alcotest.test_case "analyze_result broken" `Quick
          test_analyze_result_broken;
        Alcotest.test_case "suite isolation" `Quick test_suite_isolation;
        Alcotest.test_case "faults contained" `Quick
          test_fault_injection_contained;
        Alcotest.test_case "faults deterministic" `Quick
          test_fault_injection_deterministic;
        Alcotest.test_case "faults disabled" `Quick
          test_fault_injection_disabled;
        Alcotest.test_case "fuel cap" `Quick test_fault_fuel_cap;
        Alcotest.test_case "self-check clean" `Quick test_self_check_clean_run;
        Alcotest.test_case "budget equals greedy" `Quick
          test_budget_truncation_equals_greedy;
        Alcotest.test_case "large budget exact" `Quick
          test_large_budget_is_exact;
        Alcotest.test_case "O0 never truncates" `Quick test_o0_never_truncates;
        Alcotest.test_case "coverage budget tag" `Quick
          test_coverage_budget_tagging;
      ] );
  ]
