(* asipfb — command-line driver over the compiler-feedback pipeline.

   Subcommands mirror the paper's flow: list the suite, compile a benchmark
   to 3-address code, simulate/profile it, optimize it at a level, detect
   chainable sequences, run the coverage analysis, design a chained
   instruction set, and regenerate the paper's tables and figures. *)

open Cmdliner

let benchmark_arg =
  let doc = "Benchmark name (one of the Table 1 suite; see 'asipfb list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

(* Parsed as a raw string and validated in the command body so a bad level
   exits 1 with a one-line "asipfb:" message rather than cmdliner's 124. *)
let level_arg =
  let doc = "Optimization level: 0 (none), 1 (pipelining+percolation), 2 (+renaming)." in
  Arg.(value & opt string "1" & info [ "O"; "level" ] ~docv:"LEVEL" ~doc)

let find_level s =
  match Asipfb_sched.Opt_level.of_string s with
  | Some level -> Ok level
  | None ->
      Error
        (Printf.sprintf "invalid optimization level %S (expected 0, 1, or 2)" s)

let length_arg =
  let doc = "Sequence length to detect (2-5)." in
  Arg.(value & opt int 2 & info [ "l"; "length" ] ~docv:"LEN" ~doc)

let min_freq_arg =
  let doc = "Minimum dynamic frequency (percent) to report." in
  Arg.(value & opt float 0.5 & info [ "min-freq" ] ~docv:"PCT" ~doc)

let area_arg =
  let doc = "Area budget in adder-equivalents for chained units." in
  Arg.(value & opt float 30.0 & info [ "area" ] ~docv:"AREA" ~doc)

let budget_arg =
  let doc =
    "Branch-and-bound node budget for the sequence search; on exhaustion \
     the analyzer degrades to the greedy adjacency scan and tags its \
     output as budget-truncated."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"NODES" ~doc)

let find_benchmark name =
  match Asipfb_bench_suite.Registry.find_opt name with
  | Some b -> Ok b
  | None -> Error (Asipfb_bench_suite.Registry.unknown_message name)

let ( let* ) = Result.bind

let or_die = function
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("asipfb: " ^ msg);
      1

(* Catch every exception a pipeline stage can raise — positioned frontend
   errors, simulator traps, memory bounds, timing-simulator errors — and
   render the structured diagnostic as a clean one-line message.  Anything
   unrecognised still escapes with a backtrace (a real bug). *)
let wrap f = or_die (try f () with
  | Sys_error msg | Invalid_argument msg ->
      (* User-facing input errors (unreadable path, rate/length out of
         range): one clean line, exit 1 — never a backtrace. *)
      Error msg
  | exn -> (
      match Asipfb.Pipeline.diag_of_exn_opt exn with
      | Some d -> Error (Asipfb_diag.Diag.to_string d)
      | None -> raise exn))

(* --- subcommand bodies -------------------------------------------------- *)

let cmd_list () =
  wrap (fun () ->
      print_endline (Asipfb.Experiments.table1 ());
      Ok ())

let cmd_compile name =
  wrap (fun () ->
      Result.map
        (fun b ->
          print_endline
            (Asipfb_ir.Prog.to_string (Asipfb_bench_suite.Benchmark.compile b)))
        (find_benchmark name))

let cmd_simulate name fault_seed fault_reg_rate fault_mem_rate fault_fuel =
  wrap (fun () ->
      let* () =
        if fault_seed = None
           && (fault_reg_rate > 0.0 || fault_mem_rate > 0.0
               || fault_fuel <> None)
        then Error "fault injection flags require --fault-seed"
        else Ok ()
      in
      let faults =
        match fault_seed with
        | None -> None
        | Some seed ->
            Some
              (Asipfb_exec.Fault.create
                 { Asipfb_exec.Fault.seed;
                   reg_corrupt_rate = fault_reg_rate;
                   mem_fault_rate = fault_mem_rate;
                   fuel_cap = fault_fuel })
      in
      let* b = find_benchmark name in
      let o =
        match faults with
        | None -> Asipfb_bench_suite.Benchmark.run b
        | Some f -> Asipfb_bench_suite.Benchmark.run_with_faults b ~faults:f
      in
      let* () =
        match faults with
        | None -> Ok ()
        | Some f -> (
            match Asipfb_bench_suite.Benchmark.self_check b o with
            | Ok () ->
                Printf.printf "self-check passed (%d corruption(s) injected)\n"
                  (Asipfb_exec.Fault.injected_total f);
                Ok ()
            | Error msg ->
                Error
                  (Asipfb_diag.Diag.to_string
                     (Asipfb_diag.Diag.make ~stage:Asipfb_diag.Diag.Simulation
                        ~context:(Asipfb_exec.Fault.summary f)
                        msg)))
      in
      Printf.printf "%s: %d dynamic operations (= baseline cycles)\n"
        name o.instrs_executed;
      List.iter
        (fun region ->
          let data = Asipfb_exec.Memory.dump o.memory region in
          let shown = min 8 (Array.length data) in
          Printf.printf "  %s[0..%d] =" region (shown - 1);
          Array.iteri
            (fun i v ->
              if i < shown then
                Printf.printf " %s" (Asipfb_exec.Value.to_string v))
            data;
          print_newline ())
        b.output_regions;
      Ok ())

(* Compile a mini-C file from disk, reporting positioned diagnostics.
   Exercises the frontend error path end-to-end (the benchmarks themselves
   are compiled from embedded, known-good sources). *)
let cmd_check path =
  wrap (fun () ->
      let* src =
        match In_channel.with_open_text path In_channel.input_all with
        | src -> Ok src
        | exception Sys_error msg -> Error msg
      in
      match Asipfb_frontend.Frontend_diag.compile_result src ~entry:"main" with
      | Ok prog ->
          Printf.printf "%s: ok (%d function(s), %d region(s))\n" path
            (List.length prog.funcs) (List.length prog.regions);
          Ok ()
      | Error d ->
          Error (Asipfb_diag.Diag.to_string (Asipfb_diag.Diag.with_file d path)))

let cmd_optimize name level =
  wrap (fun () ->
      let* level = find_level level in
      Result.map
        (fun b ->
          let a = Asipfb.Pipeline.analyze b in
          let sched = Asipfb.Pipeline.sched a level in
          print_endline (Asipfb_ir.Prog.to_string sched.prog);
          List.iter
            (fun (f : Asipfb_ir.Func.t) ->
              Printf.printf "ILP(%s) = %.2f ops/cycle\n" f.name
                (Asipfb_sched.Schedule.ilp sched f.name))
            sched.prog.funcs)
        (find_benchmark name))

let cmd_detect name level length min_freq budget json =
  wrap (fun () ->
      let* level = find_level level in
      Result.map
        (fun b ->
          let a = Asipfb.Pipeline.analyze b in
          let r =
            Asipfb.Pipeline.detect_report a
              (Asipfb.Pipeline.Query.make ~length ~min_freq ?budget level)
          in
          if json then
            print_endline
              (Asipfb_service.Json.to_string
                 (Asipfb_service.Api.detect_report_to_json r))
          else begin
          let ds = r.Asipfb_chain.Detect.detections in
          (match r.completeness with
          | Asipfb_chain.Detect.Exact -> ()
          | Asipfb_chain.Detect.Budget_truncated ->
              prerr_endline
                "asipfb: warning[detection] node budget exhausted; showing \
                 greedy (budget-truncated) results");
          let rows =
            List.map
              (fun (d : Asipfb_chain.Detect.detected) ->
                [ Asipfb_chain.Detect.display_name d;
                  Asipfb_report.Table.fmt_pct d.freq;
                  string_of_int (List.length d.occurrences) ])
              ds
          in
          print_endline
            (Asipfb_report.Table.render
               ~aligns:
                 [ Asipfb_report.Table.Left; Asipfb_report.Table.Right;
                   Asipfb_report.Table.Right ]
               ~headers:[ "Sequence"; "Frequency"; "Occurrences" ]
               ~rows ())
          end)
        (find_benchmark name))

let cmd_coverage name level budget json =
  wrap (fun () ->
      let* level = find_level level in
      Result.map
        (fun b ->
          let a = Asipfb.Pipeline.analyze b in
          let r =
            Asipfb.Pipeline.coverage a
              (Asipfb.Pipeline.Query.make ?budget level)
          in
          if json then
            print_endline
              (Asipfb_service.Json.to_string
                 (Asipfb_service.Api.coverage_to_json r))
          else begin
            List.iter
              (fun (p : Asipfb_chain.Coverage.pick) ->
                Printf.printf "%-30s %6.2f%%\n"
                  (Asipfb_chain.Chainop.sequence_name p.pick_classes)
                  p.pick_freq)
              r.picks;
            let tag =
              match r.completeness with
              | Asipfb_chain.Detect.Exact -> ""
              | Asipfb_chain.Detect.Budget_truncated -> " (budget-truncated)"
            in
            Printf.printf "coverage = %.2f%%%s\n" r.coverage tag
          end)
        (find_benchmark name))

let cmd_design name area uarch clock dot json =
  wrap (fun () ->
      let* u = Asipfb.Timing.uarch_of ?clock uarch in
      Result.map
        (fun b ->
          let a = Asipfb.Pipeline.analyze b in
          if json then
            (* The same assembly the daemon's "timing" op answers with,
               so offline --json bytes equal the wire payload. *)
            print_endline
              (Asipfb_service.Json.to_string
                 (Asipfb_service.Api.timing_report_to_json
                    (Asipfb.Timing.of_analysis ~uarch:u ~area a
                       Asipfb_sched.Opt_level.O1)))
          else begin
            let d =
              Asipfb.Timing.design ~uarch:u ~area a Asipfb_sched.Opt_level.O1
            in
            let est = d.estimate in
            List.iter
              (fun diag ->
                prerr_endline ("asipfb: " ^ Asipfb_diag.Diag.to_string diag))
              d.rejected;
            print_string (Asipfb_asip.Isa.render d.choices);
            let nets = List.map Asipfb_asip.Netlist.of_choice d.choices in
            print_string (Asipfb_asip.Netlist.summary nets);
            (* The per-instruction timing-closure lines only appear when a
               machine description was asked for, keeping the flat default
               output byte-stable. *)
            if uarch <> "flat" || clock <> None then
              print_string (Asipfb_asip.Netlist.timing_summary ~uarch:u nets);
            Printf.printf
              "baseline %d cycles -> %d cycles: speedup %.2fx (area %.1f)\n"
              est.baseline_cycles est.asip_cycles est.speedup est.total_area;
            match dot with
            | Some path ->
                let oc = open_out path in
                output_string oc (Asipfb_asip.Netlist.to_dot nets);
                close_out oc;
                Printf.printf "netlist written to %s\n" path
            | None -> ()
          end)
        (find_benchmark name))

(* Write the machine-readable error report — the Service.Api diagnostics
   envelope, so file reports, lint --json, and daemon error frames all
   speak the same schema (DESIGN §14). *)
let write_diag_json path diags =
  match path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Asipfb_service.Json.to_string
           (Asipfb_service.Api.diag_report_to_json diags));
      output_char oc '\n';
      close_out oc

(* Engine selection for the suite-wide commands: [--jobs N] sizes the
   domain pool (0 = the runtime's recommended count), [--cache-dir]
   persists analysis payloads across invocations, [--no-cache] disables
   memoization entirely.  The supervision flags tune retry/backoff, the
   per-task watchdog, and the deterministic chaos harness.  Output is
   byte-identical for any setting whenever retries succeed. *)
type engine_opts = {
  jobs : int;
  cache_dir : string option;
  no_cache : bool;
  chaos_seed : int option;
  chaos_rate : float option;
  retries : int;
  retry_backoff : float;
  task_timeout : float option;
  uarch : string;
  clock : float option;
}

(* Resolve the machine-description flags to a Uarch.t; an unknown preset
   or non-positive clock is a clean one-line error. *)
let resolve_uarch (o : engine_opts) =
  Asipfb.Timing.uarch_of ?clock:o.clock o.uarch

let make_engine (o : engine_opts) =
  let* uarch = resolve_uarch o in
  let* chaos =
    match (o.chaos_seed, o.chaos_rate) with
    | None, Some _ -> Error "--chaos-rate requires --chaos-seed"
    | None, None -> Ok None
    | Some seed, rate ->
        Ok
          (Some
             { Asipfb_supervise.Chaos.seed;
               rate = Option.value rate ~default:0.05 })
  in
  let* () =
    if o.retries < 0 then Error "--retries must be non-negative" else Ok ()
  in
  let policy =
    {
      Asipfb_supervise.Supervise.Policy.default with
      retries = o.retries;
      backoff_base_s = o.retry_backoff;
      task_timeout_s = o.task_timeout;
    }
  in
  let jobs = if o.jobs = 0 then None else Some o.jobs in
  Ok
    (Asipfb_engine.Engine.create ?jobs ?cache_dir:o.cache_dir
       ~cache:(not o.no_cache) ~policy ?chaos
       ~uarch:(Asipfb_asip.Uarch.key uarch) ())

let jobs_arg =
  let doc =
    "Number of worker domains for analysis and artifact rendering (0 = \
     the runtime's recommended count).  Results are byte-identical for \
     any value."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Persist analysis results in $(docv), keyed by benchmark source \
     content, so repeated invocations skip recomputation."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the analysis memo cache (recompute everything)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let chaos_seed_arg =
  let doc =
    "Enable the deterministic chaos harness with PRNG seed $(docv): \
     inject task faults, delays, and cache corruption at engine seams \
     (reproducible: equal seeds give identical fault decisions)."
  in
  Arg.(value & opt (some int) None
       & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let chaos_rate_arg =
  let doc =
    "Per-seam chaos fault probability in [0,1] (default 0.05; requires \
     $(b,--chaos-seed))."
  in
  Arg.(value & opt (some float) None
       & info [ "chaos-rate" ] ~docv:"RATE" ~doc)

let retries_arg =
  let doc =
    "Retry each failing analysis task up to $(docv) times when the \
     failure is classified transient or timeout, with jittered \
     exponential backoff."
  in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let retry_backoff_arg =
  let doc = "Base retry backoff delay in seconds (doubles per retry)." in
  Arg.(value & opt float 0.05 & info [ "retry-backoff" ] ~docv:"SECONDS" ~doc)

let task_timeout_arg =
  let doc =
    "Per-task wall-clock watchdog budget in seconds: a wedged simulation \
     is aborted and classified as a timeout."
  in
  Arg.(value & opt (some float) None
       & info [ "task-timeout" ] ~docv:"SECONDS" ~doc)

let uarch_arg =
  let doc =
    Printf.sprintf
      "Microarchitecture preset for the timing model (one of: %s).  \
       $(b,flat) is the default single-cycle model; $(b,risc5) pipelines \
       multi-cycle multiply/divide/load/float units behind a tighter \
       clock."
      (String.concat ", " Asipfb_asip.Uarch.names)
  in
  Arg.(value & opt string "flat" & info [ "uarch" ] ~docv:"NAME" ~doc)

let clock_arg =
  let doc =
    "Override the preset's clock period (the combinational-delay budget \
     per cycle, in adder-delay units).  Chains whose critical path \
     exceeds it are rejected with a structured clock-violation \
     diagnostic."
  in
  Arg.(value & opt (some float) None & info [ "clock" ] ~docv:"PERIOD" ~doc)

let engine_opts_term =
  let mk jobs cache_dir no_cache chaos_seed chaos_rate retries retry_backoff
      task_timeout uarch clock =
    { jobs; cache_dir; no_cache; chaos_seed; chaos_rate; retries;
      retry_backoff; task_timeout; uarch; clock }
  in
  Term.(const mk $ jobs_arg $ cache_dir_arg $ no_cache_arg $ chaos_seed_arg
        $ chaos_rate_arg $ retries_arg $ retry_backoff_arg
        $ task_timeout_arg $ uarch_arg $ clock_arg)

let timings_arg =
  let doc =
    "After the run, print per-stage wall-clock metrics and cache counters \
     to stderr."
  in
  Arg.(value & flag & info [ "timings" ] ~doc)

let print_timings engine =
  let stats = Asipfb_engine.Engine.stats engine in
  let cache_line label (s : Asipfb_engine.Cache.stats) =
    Printf.eprintf
      "%-12s %d hit(s), %d disk hit(s), %d miss(es), %d corrupt, %d io \
       error(s)\n"
      label s.hits s.disk_hits s.misses s.corrupt s.io_errors
  in
  prerr_endline "-- engine stage timings (cumulative task seconds) --";
  prerr_string (Asipfb_engine.Metrics.render Asipfb_engine.Metrics.global);
  cache_line "base cache" stats.base;
  cache_line "sched cache" stats.sched;
  cache_line "verify cache" stats.verify;
  let s = stats.supervise in
  Printf.eprintf
    "supervise    %d task(s), %d attempt(s), %d retry(ies), %d failure(s), \
     %d timeout(s), %d quarantined, %d degraded\n"
    s.tasks s.attempts s.retries s.failures s.timeouts s.quarantined
    s.degraded

(* Parsed as a raw string, like --level, for a clean one-line error. *)
let verify_arg =
  let doc =
    "Run the static verifier during analysis: $(b,off), $(b,ir) (mini-C \
     lint + IR dataflow checks), $(b,full) (adds the IR dataflow checks \
     on every schedule), or $(b,tv) (adds the per-level semantic \
     refinement proof with counterexample search).  Findings go to \
     stderr and to the $(b,--diag-json) report."
  in
  Arg.(value & opt string "off" & info [ "verify" ] ~docv:"MODE" ~doc)

let find_verify_mode s : (Asipfb_engine.Engine.verify_mode, string) result =
  match s with
  | "off" -> Ok `Off
  | "ir" -> Ok `Ir
  | "full" -> Ok `Full
  | "tv" -> Ok `Tv
  | s ->
      Error
        (Printf.sprintf
           "invalid verify mode %S (expected off, ir, full, or tv)" s)

(* Full-suite analysis for report/export.  With [--keep-going] a broken
   benchmark is isolated: its diagnostic goes to stderr (and the JSON
   report), and the remaining benchmarks still produce artifacts.  Verify
   findings (when [--verify] is on) are warnings, not failures: they go
   to stderr and into the JSON report alongside any failure diagnostics. *)
let run_suite ?(verify = `Off) ~engine ~keep_going ~diag_json () =
  let finish (r : Asipfb.Pipeline.suite_report) failure_diags =
    let verify_diags =
      List.concat_map
        (fun (a : Asipfb.Pipeline.analysis) -> a.verify)
        r.analyses
    in
    (* The supervisor's event log (retries, recoveries, quarantines,
       cache healing, degradations) rides along in the diagnostic report
       so the run's robustness story is machine-readable. *)
    let supervise_diags =
      Asipfb_supervise.Supervise.report
        (Asipfb_engine.Engine.supervisor engine)
    in
    List.iter
      (fun d -> prerr_endline ("asipfb: " ^ Asipfb_diag.Diag.to_string d))
      (verify_diags @ supervise_diags);
    write_diag_json diag_json (failure_diags @ verify_diags @ supervise_diags);
    r.analyses
  in
  if keep_going then begin
    let r = Asipfb.Pipeline.run_suite ~engine ~verify ~on_error:`Isolate () in
    List.iter
      (fun (f : Asipfb.Pipeline.failure) ->
        let kind =
          match Asipfb.Pipeline.classify_failure f with
          | `Timeout -> "timeout"
          | `Crash -> "crash"
          | `Quarantined -> "quarantined"
        in
        prerr_endline
          (Printf.sprintf "asipfb: skipped %s (%s): %s" f.failed_benchmark
             kind
             (Asipfb_diag.Diag.to_string f.diag)))
      r.failures;
    finish r
      (List.map (fun (f : Asipfb.Pipeline.failure) -> f.diag) r.failures)
  end
  else
    match Asipfb.Pipeline.run_suite ~engine ~verify ~on_error:`Raise () with
    | r -> finish r []
    | exception exn ->
        write_diag_json diag_json [ Asipfb.Pipeline.diag_of_exn exn ];
        raise exn

let keep_going_arg =
  let doc =
    "Do not abort the suite when one benchmark fails; report its \
     diagnostic and continue with the rest."
  in
  Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)

let diag_json_arg =
  let doc =
    "Write failures as a machine-readable JSON diagnostic report to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "diag-json" ] ~docv:"FILE" ~doc)

let cmd_report artifact keep_going diag_json verify opts timings =
  wrap (fun () ->
      let* verify = find_verify_mode verify in
      let* uarch = resolve_uarch opts in
      let* engine = make_engine opts in
      let suite = run_suite ~verify ~engine ~keep_going ~diag_json () in
      let finish r = if timings then print_timings engine; r in
      finish
      @@
      let table = Asipfb.Experiments.artifacts ~uarch suite in
      match artifact with
      | None ->
          (* Flushed per chunk: the artifacts printed before a failing
             one reach stdout before the error line reaches stderr. *)
          Asipfb.Experiments.render_report
            ~jobs:(Asipfb_engine.Engine.jobs engine) table (fun chunk ->
              print_string chunk;
              flush stdout);
          Ok ()
      | Some name -> (
          match List.assoc_opt name table with
          | Some render -> Ok (print_endline (render ()))
          | None ->
              Error
                (Printf.sprintf "unknown artifact %S (one of: %s)" name
                   (String.concat ", " (List.map fst table)))))

(* Static analysis as its own subcommand: run all three checkers of
   lib/verify (mini-C lint, IR dataflow checks, refinement proof at
   every opt level) over one benchmark or the whole suite. *)
let cmd_lint name json strict opts timings =
  wrap (fun () ->
      let* benchmarks =
        match name with
        | None -> Ok Asipfb_bench_suite.Registry.all
        | Some n -> Result.map (fun b -> [ b ]) (find_benchmark n)
      in
      let* engine = make_engine opts in
      let r =
        Asipfb.Pipeline.run_suite ~engine ~verify:`Tv ~benchmarks
          ~on_error:`Raise ()
      in
      let findings =
        List.concat_map
          (fun (a : Asipfb.Pipeline.analysis) -> a.verify)
          r.analyses
      in
      if json then
        print_endline
          (Asipfb_service.Json.to_string
             (Asipfb_service.Api.findings_to_json findings))
      else begin
        List.iter
          (fun d -> print_endline (Asipfb_diag.Diag.to_string d))
          findings;
        Printf.printf "%d finding(s) across %d benchmark(s) (%d schedule(s) \
                       verified)\n"
          (List.length findings)
          (List.length r.analyses)
          (List.length r.analyses * List.length Asipfb_sched.Opt_level.all)
      end;
      if timings then print_timings engine;
      if strict && findings <> [] then
        Error
          (Printf.sprintf "lint: %d finding(s) in strict mode"
             (List.length findings))
      else Ok ())

(* Corpus scale-out: generate a seeded mini-C population and stream it
   through the full pipeline (detect→sched→sim→verify) on the engine,
   under the same supervision policy as the curated suite. *)
let cmd_corpus seed count size print_index level length top verify json
    diag_json opts timings =
  wrap (fun () ->
      match print_index with
      | Some index ->
          (* Reproduce one corpus program from its three integers: the
             generator is a pure function of (seed, index, size). *)
          let* () =
            if index < 0 then Error "--print index must be non-negative"
            else if index >= count then
              Error
                (Printf.sprintf "--print index %d out of range (count %d)"
                   index count)
            else Ok ()
          in
          print_string (Asipfb_corpus.Gen.source ~seed ~size ~index ());
          Ok ()
      | None ->
          let* () =
            if count <= 0 then Error "--count must be positive" else Ok ()
          in
          let* level = find_level level in
          let* verify = find_verify_mode verify in
          let* engine = make_engine opts in
          let sp = Asipfb_corpus.Corpus.spec ~seed ~count ~size () in
          let failures = ref [] in
          let on_result (o : Asipfb_corpus.Corpus.outcome) =
            match o.result with
            | Ok _ -> ()
            | Error f ->
                failures := f.diag :: !failures;
                let kind =
                  match Asipfb.Pipeline.classify_failure f with
                  | `Timeout -> "timeout"
                  | `Crash -> "crash"
                  | `Quarantined -> "quarantined"
                in
                prerr_endline
                  (Printf.sprintf "asipfb: failed %s (%s): %s"
                     f.failed_benchmark kind
                     (Asipfb_diag.Diag.to_string f.diag))
          in
          let query = Asipfb.Pipeline.Query.make ~length level in
          let summary =
            Asipfb_corpus.Corpus.run_spec ~engine ~verify ~query ~on_result sp
          in
          if json then
            print_endline
              (Asipfb_service.Json.to_string
                 (Asipfb_service.Api.corpus_summary_to_json sp summary))
          else
            print_string (Asipfb_corpus.Corpus.render_summary ~top sp summary);
          let supervise_diags =
            Asipfb_supervise.Supervise.report
              (Asipfb_engine.Engine.supervisor engine)
          in
          write_diag_json diag_json (List.rev !failures @ supervise_diags);
          if timings then print_timings engine;
          (* Generated programs are trap-free by construction, so any
             failure is a pipeline bug — fail loudly. *)
          let broken =
            summary.crashed + summary.timeouts + summary.quarantined
          in
          if broken > 0 then
            Error
              (Printf.sprintf "corpus: %d of %d program(s) failed" broken
                 summary.total)
          else Ok ())

let corpus_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:
               "Corpus PRNG seed.  Programs are a pure function of \
                ($(docv), index, size): equal seeds reproduce byte-identical \
                sources and analysis artifacts on any host and any $(b,-j).")
  in
  let count =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let size =
    Arg.(value & opt int Asipfb_corpus.Gen.default_size
         & info [ "size" ] ~docv:"STMTS"
             ~doc:
               "Maximum statements per program body (minimum 3; each \
                program draws its length from [3, $(docv)]).")
  in
  let print_index =
    Arg.(value & opt (some int) None
         & info [ "print" ] ~docv:"INDEX"
             ~doc:
               "Print program $(docv)'s mini-C source and exit (no \
                analysis) — the reproduction path for a failing corpus \
                program: pipe it to a file and run $(b,asipfb check).")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Chain-histogram lines to print in the summary.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Print the run summary as JSON (the service schema's \
                corpus-summary object) instead of the human-readable \
                report.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generate $(b,--count) mini-C programs from $(b,--seed) and run \
         the full analysis pipeline over them — frontend, profiling \
         simulation, all three optimization levels, optional static \
         verification, and chain detection — streaming results in \
         bounded batches on the parallel engine under the supervision \
         policy (retry/backoff, watchdog, quarantine).";
      `P
        "The generator's grammar is the differential-testing one: four \
         int scalars, two 8-element arrays, expressions over + - * & ^, \
         shifts and negation, masked array accesses, if/else, and \
         bounded for loops.  Indices are always masked in bounds and \
         division is never generated, so every program runs trap-free: \
         a corpus failure always indicates a pipeline bug.";
      `P
        "The summary aggregates a traffic-weighted chain histogram: \
         each detected sequence's share of corpus-wide dynamic \
         operations — the multi-application signal for shared \
         instruction-set selection.";
      `P
        "Reproducibility: a program is identified by (seed, index, \
         size).  $(b,--print) INDEX regenerates one program's source \
         byte-identically; the whole run's output is byte-identical \
         for any $(b,-j) and any batch size.";
    ]
  in
  Cmd.v
    (Cmd.info "corpus" ~man
       ~doc:
         "Generate a seeded mini-C corpus and analyze it at scale on \
          the parallel engine.")
    Term.(const cmd_corpus $ seed $ count $ size $ print_index $ level_arg
          $ length_arg $ top $ verify_arg $ json $ diag_json_arg
          $ engine_opts_term $ timings_arg)

let lint_cmd =
  let benchmark =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Benchmark to lint (default: the whole suite).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the findings as a JSON diagnostic report.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit non-zero if there is any finding.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static verifier: mini-C lint, IR dataflow checks, and \
          the semantic refinement proof at every optimization level.")
    Term.(const cmd_lint $ benchmark $ json $ strict $ engine_opts_term
          $ timings_arg)

(* Translation validation as its own subcommand: prove (or refute, with
   a counterexample) that each scheduled program refines its original.
   --corrupt deliberately mutates the schedule first — the self-test the
   CI smoke gate runs to check the checker still rejects. *)
let cmd_equiv name level corrupt seed uarch clock =
  let module Equiv = Asipfb_verify.Equiv in
  let module Mutate = Asipfb_verify.Mutate in
  wrap (fun () ->
      let* benchmarks =
        match name with
        | None -> Ok Asipfb_bench_suite.Registry.all
        | Some n -> Result.map (fun b -> [ b ]) (find_benchmark n)
      in
      let* levels =
        match level with
        | None -> Ok Asipfb_sched.Opt_level.all
        | Some s -> Result.map (fun l -> [ l ]) (find_level s)
      in
      (* With a machine description the run also validates timing
         closure: every selected chain must fit the clock and the
         measured speedup must agree with the estimate.  Without the
         flags it checks refinement only. *)
      let* timing_uarch =
        match (uarch, clock) with
        | None, None -> Ok None
        | name, clock ->
            Result.map Option.some
              (Asipfb.Timing.uarch_of ?clock
                 (Option.value name ~default:"flat"))
      in
      let* kind =
        match corrupt with
        | None -> Ok None
        | Some s -> (
            match
              List.find_opt
                (fun k -> Mutate.kind_to_string k = s)
                Mutate.all
            with
            | Some k -> Ok (Some k)
            | None ->
                Error
                  (Printf.sprintf "invalid corruption %S (expected %s)" s
                     (String.concat ", "
                        (List.map Mutate.kind_to_string Mutate.all))))
      in
      let failed = ref 0 in
      List.iter
        (fun (b : Asipfb_bench_suite.Benchmark.t) ->
          let original = Asipfb_bench_suite.Benchmark.compile b in
          List.iter
            (fun lvl ->
              let tag =
                Printf.sprintf "%s %s" b.name
                  (Asipfb_sched.Opt_level.to_string lvl)
              in
              let sched =
                Asipfb_sched.Schedule.optimize ~level:lvl original
              in
              match
                match kind with
                | None -> Some sched.prog
                | Some k -> Mutate.apply ~seed k sched.prog
              with
              | None ->
                  incr failed;
                  Printf.printf "%s: no mutation site for --corrupt\n" tag
              | Some transformed -> (
                  match Equiv.check ~original ~transformed () with
                  | Equiv.Refines -> Printf.printf "%s: refines\n" tag
                  | Equiv.Fails { failures; counterexample } ->
                      incr failed;
                      Printf.printf "%s: FAILS (%d obligation(s))\n" tag
                        (List.length failures);
                      List.iter
                        (fun f ->
                          Printf.printf "  %s\n"
                            (Equiv.failure_to_string f))
                        failures;
                      Option.iter
                        (fun (cx : Equiv.counterexample) ->
                          Printf.printf
                            "  counterexample (attempt %d%s): %s\n"
                            cx.cx_attempt
                            (if cx.cx_ref_confirmed then ", ref-confirmed"
                             else "")
                            cx.cx_divergence)
                        counterexample))
            levels)
        benchmarks;
      (match timing_uarch with
      | None -> ()
      | Some u ->
          List.iter
            (fun (b : Asipfb_bench_suite.Benchmark.t) ->
              let a = Asipfb.Pipeline.analyze b in
              List.iter
                (fun lvl ->
                  let tag =
                    Printf.sprintf "%s %s" b.name
                      (Asipfb_sched.Opt_level.to_string lvl)
                  in
                  let r = Asipfb.Timing.of_analysis ~uarch:u a lvl in
                  let violations =
                    List.filter
                      (fun (c : Asipfb.Timing.chain_report) ->
                        c.cr_slack < -1e-9)
                      r.t_chains
                  in
                  if violations <> [] then begin
                    incr failed;
                    List.iter
                      (fun (c : Asipfb.Timing.chain_report) ->
                        Printf.printf
                          "%s: TIMING VIOLATION %s delay %.2f > clock %.2f\n"
                          tag c.cr_mnemonic c.cr_delay r.t_clock)
                      violations
                  end
                  else if not (Asipfb.Timing.agrees r) then begin
                    incr failed;
                    Printf.printf
                      "%s: TIMING DISAGREEMENT estimated %.2fx vs measured \
                       %.2fx (tolerance %.0f%%)\n"
                      tag r.t_estimated_speedup r.t_measured_speedup
                      (100.0 *. Asipfb_asip.Speedup.agreement_tolerance)
                  end
                  else
                    Printf.printf
                      "%s: timing closed (%s, estimated %.2fx, measured \
                       %.2fx)\n"
                      tag r.t_uarch r.t_estimated_speedup
                      r.t_measured_speedup)
                levels)
            benchmarks);
      Printf.printf "%d pair(s) checked, %d refinement failure(s)\n"
        (List.length benchmarks * List.length levels)
        !failed;
      if !failed > 0 then
        Error (Printf.sprintf "equiv: %d refinement failure(s)" !failed)
      else Ok ())

let equiv_cmd =
  let benchmark =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Benchmark to validate (default: the whole suite).")
  in
  let level =
    Arg.(value & opt (some string) None
         & info [ "O"; "level" ] ~docv:"LEVEL"
             ~doc:"Optimization level to validate (default: all three).")
  in
  let corrupt =
    Arg.(value & opt (some string) None
         & info [ "corrupt" ] ~docv:"KIND"
             ~doc:
               "Deliberately corrupt the schedule before checking \
                ($(b,swap-deps), $(b,drop-copy), $(b,retarget-jump), or \
                $(b,edit-const)) — the checker must then reject.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Mutation-site PRNG seed for $(b,--corrupt).")
  in
  let equiv_uarch =
    Arg.(value & opt (some string) None
         & info [ "uarch" ] ~docv:"NAME"
             ~doc:
               "Also validate timing closure under this microarchitecture \
                preset: every selected chain must fit the clock and the \
                measured speedup must agree with the estimate.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Translation validation: prove each scheduled program refines \
          its original, or refute with a concrete counterexample trace.")
    Term.(const cmd_equiv $ benchmark $ level $ corrupt $ seed
          $ equiv_uarch $ clock_arg)

(* --- analysis service: serve + client ------------------------------------ *)

module Service = Asipfb_service

let socket_arg =
  let doc = "Path of the daemon's Unix-domain socket." in
  Arg.(value & opt string "asipfb.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

(* Hold the engine warm across requests: repeated questions hit the
   daemon's response memo, identical concurrent questions coalesce, and
   everything else lands in the engine's content-keyed analysis cache. *)
let cmd_serve socket workers verbose opts =
  wrap (fun () ->
      let* () =
        if workers < 1 then Error "--workers must be at least 1" else Ok ()
      in
      let* engine = make_engine opts in
      let log =
        if verbose then
          Some (fun line -> Printf.eprintf "asipfb[serve]: %s\n%!" line)
        else None
      in
      let server = Service.Server.create ~engine ?log () in
      let stop _ = Service.Server.request_stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      (* A client vanishing mid-response must surface as EPIPE in the
         worker (handled per-connection), not kill the daemon. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Service.Server.serve server
        ~on_ready:(fun () ->
          Printf.eprintf "asipfb: serving on %s (%d worker(s))\n%!" socket
            workers)
        ~socket ~workers ())

let serve_cmd =
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:
               "Accept-loop worker domains (= maximum concurrently served \
                connections; excess connections wait in the listen \
                backlog).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Log one line per handled frame to stderr.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run the analysis daemon: bind a Unix-domain socket and answer \
         newline-delimited JSON request frames (DESIGN §14) with one warm \
         engine shared across requests and clients — compiled benchmark \
         analyses, the content-keyed cache, and supervision state stay \
         resident, so repeated queries skip recomputation entirely.";
      `P
        "Responses carry a cache tag: $(b,miss) (computed fresh), \
         $(b,hit) (served from the completed-response memo), $(b,join) \
         (coalesced with an identical in-flight computation), or \
         $(b,none) (nothing cacheable).  Response payloads are \
         byte-identical to the offline CLI's $(b,--json) output for the \
         same query.";
      `P
        "The daemon refuses to start when the socket is already served \
         by a live daemon, takes over a stale socket left by a killed \
         one, and removes the socket file on shutdown (including \
         SIGINT/SIGTERM).  Stop it with $(b,asipfb client shutdown).";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:"Run the analysis daemon on a Unix-domain socket.")
    Term.(const cmd_serve $ socket_arg $ workers $ verbose
          $ engine_opts_term)

let meta_arg =
  let doc =
    "Print response metadata (the cache status: miss, hit, join, none) \
     to stderr."
  in
  Arg.(value & flag & info [ "meta" ] ~doc)

let render_payload (p : Service.Api.payload) =
  let json j = print_endline (Service.Json.to_string j) in
  match p with
  | Service.Api.Pong ->
      print_endline "pong";
      Ok ()
  | Service.Api.Stopping ->
      print_endline "stopping";
      Ok ()
  | Service.Api.Detect_result r ->
      json (Service.Api.detect_report_to_json r);
      Ok ()
  | Service.Api.Coverage_result r ->
      json (Service.Api.coverage_to_json r);
      Ok ()
  | Service.Api.Findings ds ->
      json (Service.Api.findings_to_json ds);
      Ok ()
  | Service.Api.Stats_result s ->
      json (Service.Api.stats_to_json s);
      Ok ()
  | Service.Api.Tv_result v ->
      json (Service.Api.equiv_verdict_to_json v);
      Ok ()
  | Service.Api.Sample { source; _ } ->
      print_string source;
      Ok ()
  | Service.Api.Timing_result r ->
      json (Service.Api.timing_report_to_json r);
      Ok ()

let run_client socket meta req =
  let* c = Service.Client.connect ~socket in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      let* (r : Service.Api.response) = Service.Client.rpc c req in
      if meta then
        Printf.eprintf "asipfb: cache=%s\n"
          (Service.Api.cache_status_to_string r.cache);
      match r.body with
      | Ok payload -> render_payload payload
      | Error d -> Error (Asipfb_diag.Diag.to_string d))

let cmd_client_simple req socket meta =
  wrap (fun () -> run_client socket meta req)

let cmd_client_detect name level length min_freq budget socket meta =
  wrap (fun () ->
      let* level = find_level level in
      let query =
        Asipfb.Pipeline.Query.make ~length ~min_freq ?budget level
      in
      run_client socket meta
        (Service.Api.Detect { benchmark = name; query }))

let cmd_client_coverage name level budget socket meta =
  wrap (fun () ->
      let* level = find_level level in
      let query = Asipfb.Pipeline.Query.make ?budget level in
      run_client socket meta
        (Service.Api.Coverage { benchmark = name; query }))

let cmd_client_verify name mode socket meta =
  wrap (fun () ->
      let* mode =
        match mode with
        | "ir" -> Ok `Ir
        | "full" -> Ok `Full
        | "tv" -> Ok `Tv
        | s ->
            Error
              (Printf.sprintf
                 "invalid verify mode %S (expected ir, full, or tv)" s)
      in
      run_client socket meta (Service.Api.Verify { benchmark = name; mode }))

let cmd_client_lint name socket meta =
  wrap (fun () ->
      run_client socket meta (Service.Api.Lint { benchmark = name }))

let cmd_client_corpus_sample seed index size socket meta =
  wrap (fun () ->
      run_client socket meta
        (Service.Api.Corpus_sample { seed; index; size }))

let cmd_client_timing name level uarch clock socket meta =
  wrap (fun () ->
      let* level = find_level level in
      run_client socket meta
        (Service.Api.Timing { benchmark = name; level; uarch; clock }))

let client_cmd =
  let simple name ~doc req =
    Cmd.v (Cmd.info name ~doc)
      Term.(const (cmd_client_simple req) $ socket_arg $ meta_arg)
  in
  let verify_mode =
    Arg.(value & opt string "full"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Verifier depth: $(b,ir), $(b,full), or $(b,tv).")
  in
  let lint_benchmark =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Benchmark to lint (default: the whole suite).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Corpus PRNG seed.")
  in
  let index =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX"
           ~doc:"Corpus program index to regenerate.")
  in
  let size =
    Arg.(value & opt (some int) None & info [ "size" ] ~docv:"STMTS"
           ~doc:"Maximum statements per program body.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Send one request frame to a running $(b,asipfb serve) daemon \
         and print the response: analysis payloads as JSON \
         (byte-identical to the offline $(b,--json) output for the same \
         query), corpus samples as mini-C source.  A structured error \
         response becomes a one-line message and exit 1.";
    ]
  in
  Cmd.group (Cmd.info "client" ~man ~doc:"Query a running analysis daemon.")
    [
      simple "ping" ~doc:"Liveness probe." Service.Api.Ping;
      simple "stats"
        ~doc:"Engine cache/supervision counters and service counters."
        Service.Api.Stats;
      simple "shutdown" ~doc:"Ask the daemon to exit cleanly."
        Service.Api.Shutdown;
      Cmd.v
        (Cmd.info "detect"
           ~doc:"Detect chainable sequences via the daemon.")
        Term.(const cmd_client_detect $ benchmark_arg $ level_arg
              $ length_arg $ min_freq_arg $ budget_arg $ socket_arg
              $ meta_arg);
      Cmd.v
        (Cmd.info "coverage"
           ~doc:"Iterative sequence coverage via the daemon.")
        Term.(const cmd_client_coverage $ benchmark_arg $ level_arg
              $ budget_arg $ socket_arg $ meta_arg);
      Cmd.v
        (Cmd.info "verify" ~doc:"Static verification via the daemon.")
        Term.(const cmd_client_verify $ benchmark_arg $ verify_mode
              $ socket_arg $ meta_arg);
      Cmd.v
        (Cmd.info "lint"
           ~doc:"Full-suite (or one-benchmark) lint via the daemon.")
        Term.(const cmd_client_lint $ lint_benchmark $ socket_arg
              $ meta_arg);
      Cmd.v
        (Cmd.info "corpus-sample"
           ~doc:"Regenerate one corpus program's source via the daemon.")
        Term.(const cmd_client_corpus_sample $ seed $ index $ size
              $ socket_arg $ meta_arg);
      Cmd.v
        (Cmd.info "timing"
           ~doc:
             "Timing-closure report (estimated vs. measured speedup, \
              per-chain slack) via the daemon.")
        Term.(const cmd_client_timing $ benchmark_arg $ level_arg
              $ uarch_arg $ clock_arg $ socket_arg $ meta_arg);
    ]

(* --- command wiring ------------------------------------------------------ *)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite (Table 1).")
    Term.(const cmd_list $ const ())

let compile_cmd =
  Cmd.v (Cmd.info "compile" ~doc:"Compile a benchmark to 3-address code.")
    Term.(const cmd_compile $ benchmark_arg)

let fault_seed_arg =
  let doc =
    "Enable fault injection with PRNG seed $(docv) (reproducible: equal \
     seeds give identical fault streams)."
  in
  Arg.(value & opt (some int) None
       & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_reg_rate_arg =
  let doc = "Probability of corrupting each register write." in
  Arg.(value & opt float 0.0 & info [ "fault-reg-rate" ] ~docv:"RATE" ~doc)

let fault_mem_rate_arg =
  let doc = "Probability of corrupting each memory load." in
  Arg.(value & opt float 0.0 & info [ "fault-mem-rate" ] ~docv:"RATE" ~doc)

let fault_fuel_arg =
  let doc = "Clamp interpreter fuel (premature exhaustion fault)." in
  Arg.(value & opt (some int) None
       & info [ "fault-fuel" ] ~docv:"FUEL" ~doc)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate and profile a benchmark (step 2), optionally under \
          seeded fault injection with an expected-output self-check.")
    Term.(const cmd_simulate $ benchmark_arg $ fault_seed_arg
          $ fault_reg_rate_arg $ fault_mem_rate_arg $ fault_fuel_arg)

let check_cmd =
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Mini-C source file to check.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Compile a mini-C source file and report diagnostics.")
    Term.(const cmd_check $ path)

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Optimize a benchmark and print the transformed code (step 3).")
    Term.(const cmd_optimize $ benchmark_arg $ level_arg)

let result_json_arg =
  let doc =
    "Print the result as JSON (the service wire schema; byte-identical \
     to the daemon's response payload for the same query)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let detect_cmd =
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Detect chainable operation sequences (step 4).")
    Term.(const cmd_detect $ benchmark_arg $ level_arg $ length_arg
          $ min_freq_arg $ budget_arg $ result_json_arg)

let coverage_cmd =
  Cmd.v
    (Cmd.info "coverage" ~doc:"Iterative sequence coverage (section 7).")
    Term.(const cmd_coverage $ benchmark_arg $ level_arg $ budget_arg
          $ result_json_arg)

let design_cmd =
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Also write the chained units' structural netlists as a \
                   Graphviz file.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Print the timing-closure report as JSON (the service \
                schema's timing-report object; byte-identical to the \
                daemon's response for the same query).  Includes the \
                measured Tsim speedup next to the counting estimate.")
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Select a chained-instruction set under an area budget and a \
          machine description's clock.")
    Term.(const cmd_design $ benchmark_arg $ area_arg $ uarch_arg
          $ clock_arg $ dot $ json)

let cmd_export dir keep_going diag_json verify opts timings =
  wrap (fun () ->
      let* verify = find_verify_mode verify in
      let* engine = make_engine opts in
      let suite = run_suite ~verify ~engine ~keep_going ~diag_json () in
      let written = Asipfb.Experiments.export_csv suite ~dir in
      List.iter print_endline written;
      if timings then print_timings engine;
      Ok ())

let export_cmd =
  let dir =
    Arg.(value & opt string "asipfb-data"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory for CSV files.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export the raw experiment data as CSV files.")
    Term.(const cmd_export $ dir $ keep_going_arg $ diag_json_arg
          $ verify_arg $ engine_opts_term $ timings_arg)

let report_cmd =
  let artifact =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ARTIFACT"
           ~doc:"Artifact to regenerate (default: all).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate the paper's tables and figures over the whole suite.")
    Term.(const cmd_report $ artifact $ keep_going_arg $ diag_json_arg
          $ verify_arg $ engine_opts_term $ timings_arg)

let main =
  let doc = "compiler feedback for ASIP design (DATE 1995 reproduction)" in
  Cmd.group (Cmd.info "asipfb" ~version:"1.0.0" ~doc)
    [ list_cmd; compile_cmd; check_cmd; lint_cmd; equiv_cmd; simulate_cmd;
      optimize_cmd; detect_cmd; coverage_cmd; design_cmd; report_cmd;
      export_cmd; corpus_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval' main)
