(* Supervision layer: deterministic chaos decisions, retry/backoff
   accounting, quarantine, the cooperative watchdog, cache checksum
   self-healing, and the oracle degradation ladder — plus the central
   chaos property: a chaos run whose retries succeed produces results
   identical to a fault-free run. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Pipeline = Asipfb.Pipeline
module Engine = Asipfb_engine.Engine
module Cache = Asipfb_engine.Cache
module Fallback = Asipfb_engine.Fallback
module Supervise = Asipfb_supervise.Supervise
module Chaos = Asipfb_supervise.Chaos
module Diag = Asipfb_diag.Diag

let fir () = Registry.find "fir"

let fresh_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.temp_dir "asipfb_supervise_test" (string_of_int !n)

(* No real sleeping and no quarantine in unit-test policies unless the
   test is about those behaviors. *)
let fast_policy =
  {
    Supervise.Policy.default with
    sleep = (fun _ -> ());
    backoff_base_s = 0.001;
  }

(* --- chaos determinism -------------------------------------------------- *)

let test_chaos_deterministic () =
  let c1 = Chaos.create { seed = 42; rate = 0.5 } in
  let c2 = Chaos.create { seed = 42; rate = 0.5 } in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        ("task_crash agrees for " ^ key)
        (Chaos.task_crash c1 ~key) (Chaos.task_crash c2 ~key);
      Alcotest.(check bool)
        ("decision is repeatable for " ^ key)
        (Chaos.task_crash c1 ~key) (Chaos.task_crash c1 ~key))
    [ "base:fir#1"; "base:fir#2"; "sched:sor@O1#1"; "x#1" ];
  let data = String.init 64 Char.chr in
  Alcotest.(check string) "mangle is deterministic"
    (Chaos.mangle c1 ~site:"cache-write" ~key:"k" data)
    (Chaos.mangle c2 ~site:"cache-write" ~key:"k" data)

let test_chaos_rates () =
  let never = Chaos.create { seed = 7; rate = 0.0 } in
  let always = Chaos.create { seed = 7; rate = 1.0 } in
  let keys = List.init 50 (fun i -> "k" ^ string_of_int i) in
  Alcotest.(check bool) "rate 0 never fires" false
    (List.exists (fun key -> Chaos.task_crash never ~key) keys);
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all (fun key -> Chaos.task_crash always ~key) keys);
  Alcotest.(check bool) "rate 1 always mangles" true
    (List.for_all
       (fun key -> Chaos.mangle always ~site:"cache-write" ~key "payload" <> "payload")
       keys);
  (match Chaos.create { seed = 0; rate = 1.5 } with
  | _ -> Alcotest.fail "rate out of range must be rejected"
  | exception Invalid_argument _ -> ())

(* --- retry / classification -------------------------------------------- *)

let test_retry_transient_until_success () =
  let slept = ref [] in
  let policy =
    { fast_policy with sleep = (fun d -> slept := d :: !slept); retries = 3 }
  in
  let sup = Supervise.create ~policy () in
  let calls = ref 0 in
  let result =
    Supervise.run sup ~group:"g" ~name:"t" (fun ctx ->
        incr calls;
        Alcotest.(check int) "ctx.attempt tracks the loop" !calls
          ctx.Supervise.attempt;
        if !calls < 3 then raise (Sys_error "transient I/O");
        "done")
  in
  Alcotest.(check string) "eventually succeeds" "done"
    (Result.get_ok result);
  Alcotest.(check int) "two failures before success" 3 !calls;
  Alcotest.(check int) "two backoff sleeps" 2 (List.length !slept);
  List.iter
    (fun d -> Alcotest.(check bool) "backoff is positive" true (d > 0.0))
    !slept;
  let s = Supervise.stats sup in
  Alcotest.(check int) "attempts" 3 s.attempts;
  Alcotest.(check int) "retries" 2 s.retries;
  Alcotest.(check int) "failures" 2 s.failures;
  (* The recovery is on the record. *)
  Alcotest.(check bool) "recovered event reported" true
    (List.exists
       (fun d -> List.assoc_opt "kind" d.Diag.context = Some "recovered")
       (Supervise.report sup))

let test_permanent_not_retried () =
  let sup = Supervise.create ~policy:{ fast_policy with retries = 5 } () in
  let calls = ref 0 in
  (match
     Supervise.run sup ~group:"g" ~name:"t" (fun _ ->
         incr calls;
         failwith "a real bug")
   with
  | Ok _ -> Alcotest.fail "must fail"
  | Error (Failure msg) ->
      Alcotest.(check string) "original exception surfaces" "a real bug" msg
  | Error _ -> Alcotest.fail "unexpected exception");
  Alcotest.(check int) "permanent failure runs once" 1 !calls;
  Alcotest.(check int) "no retries" 0 (Supervise.stats sup).retries

let test_classify () =
  Alcotest.(check bool) "chaos is transient" true
    (Supervise.classify (Chaos.Injected "x") = Supervise.Transient);
  Alcotest.(check bool) "sys_error is transient" true
    (Supervise.classify (Sys_error "x") = Supervise.Transient);
  Alcotest.(check bool) "watchdog is timeout" true
    (Supervise.classify
       (Asipfb_sim.Interp.Watchdog_timeout { instrs_executed = 1 })
    = Supervise.Timeout);
  Alcotest.(check bool) "fuel exhaustion is timeout" true
    (Supervise.classify
       (Asipfb_sim.Interp.Fuel_exhausted { instrs_executed = 1; fuel = 1 })
    = Supervise.Timeout);
  Alcotest.(check bool) "everything else is permanent" true
    (Supervise.classify Exit = Supervise.Permanent)

(* --- quarantine --------------------------------------------------------- *)

let test_quarantine_after_repeated_failures () =
  let policy = { fast_policy with retries = 1; quarantine_threshold = 3 } in
  let sup = Supervise.create ~policy () in
  let fail_task name =
    match
      Supervise.run sup ~group:"bad-bench" ~name (fun _ ->
          raise (Sys_error "boom"))
    with
    | Error (Sys_error _) -> ()
    | _ -> Alcotest.fail (name ^ " must fail with the original exception")
  in
  let quarantined () = Supervise.is_quarantined sup "bad-bench" in
  (* Two tasks give up: two attempts each (1 retry), both fail. *)
  fail_task "base:bad-bench";
  fail_task "sched:bad-bench@O0";
  Alcotest.(check bool) "two tasks gave up: not yet quarantined" false
    (quarantined ());
  (* A task whose retry succeeds does not count toward quarantine. *)
  let calls = ref 0 in
  Alcotest.(check bool) "retried task recovers" true
    (Supervise.run sup ~group:"bad-bench" ~name:"sched:bad-bench@O1"
       (fun _ ->
         incr calls;
         if !calls = 1 then raise (Sys_error "blip");
         true)
    |> Result.get_ok);
  Alcotest.(check bool) "a recovered task does not count" false
    (quarantined ());
  (* The third task to give up crosses the threshold. *)
  fail_task "sched:bad-bench@O2";
  Alcotest.(check bool) "quarantined once three tasks gave up" true
    (quarantined ());
  (* The next task is skipped without running its body. *)
  (match
     Supervise.run sup ~group:"bad-bench" ~name:"verify-ir:bad-bench"
       (fun _ -> Alcotest.fail "quarantined body must not run")
   with
  | Error (Supervise.Quarantined { benchmark; failed_attempts }) ->
      Alcotest.(check string) "benchmark named" "bad-bench" benchmark;
      Alcotest.(check int) "every failed attempt counted" 7 failed_attempts
  | _ -> Alcotest.fail "the fourth task must be quarantined");
  (* Other groups are unaffected. *)
  Alcotest.(check bool) "other group still runs" true
    (Supervise.run sup ~group:"good" ~name:"t" (fun _ -> true)
    |> Result.get_ok);
  (match Supervise.quarantine_records sup with
  | [ (g, n, history) ] ->
      Alcotest.(check string) "record group" "bad-bench" g;
      Alcotest.(check int) "record count" 7 n;
      Alcotest.(check int) "history has every failed attempt" 7
        (List.length history);
      Alcotest.(check string) "history is oldest-first" "base:bad-bench"
        (List.hd history).Supervise.task
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l)));
  (* The quarantine diagnostic carries the retry history. *)
  let q =
    List.find
      (fun d -> List.assoc_opt "kind" d.Diag.context = Some "quarantined")
      (Supervise.report sup)
  in
  Alcotest.(check bool) "diag lists attempt history" true
    (List.mem_assoc "attempt-1" q.Diag.context
    && List.mem_assoc "attempt-7" q.Diag.context)

(* A keyed engine task (a variant, product or query) is its own group,
   and failed attempts that are retried do not count toward quarantine,
   so --retries N really gives it N+1 attempts even past the quarantine
   threshold. *)
let test_keyed_task_gets_every_retry () =
  let policy = { fast_policy with retries = 3; quarantine_threshold = 3 } in
  let engine = Engine.create ~jobs:1 ~cache:false ~policy () in
  let kind = Engine.kind engine "keyed" in
  let calls = ref 0 in
  (match
     Engine.run_task engine kind ~key:"k" ~name:"query:k" (fun _ ->
         incr calls;
         if !calls <= 3 then raise (Chaos.Injected "transient fault");
         42)
   with
  | Ok v -> Alcotest.(check int) "fourth attempt's value" 42 v
  | Error (exn, _) ->
      Alcotest.failf "keyed task gave up after %d attempt(s): %s" !calls
        (Printexc.to_string exn));
  Alcotest.(check int) "attempts" 4 !calls;
  Alcotest.(check int) "no group quarantined" 0
    (Supervise.stats (Engine.supervisor engine)).quarantined

(* --- watchdog ----------------------------------------------------------- *)

let wedge : Benchmark.t =
  {
    name = "wedge";
    description = "deliberately near-unbounded loop";
    data_input = "none";
    source =
      "int out[1];\n\
       void main() {\n\
      \  int i;\n\
      \  int acc = 0;\n\
      \  for (i = 0; i < 2000000000; i++) { acc = acc + 1; }\n\
      \  out[0] = acc;\n\
       }";
    inputs = (fun () -> []);
    output_regions = [ "out" ];
  }

let test_watchdog_aborts_core () =
  (* An already-expired watchdog aborts at the first poll interval. *)
  let prog = Benchmark.compile wedge in
  (match
     Asipfb_sim.Interp.run prog ~inputs:[] ~watchdog:(fun () -> true)
   with
  | _ -> Alcotest.fail "expired watchdog must abort the run"
  | exception Asipfb_sim.Interp.Watchdog_timeout { instrs_executed } ->
      Alcotest.(check bool) "aborted near the first poll" true
        (instrs_executed >= Asipfb_exec.Core.watchdog_interval
        && instrs_executed < 4 * Asipfb_exec.Core.watchdog_interval));
  (* A watchdog that never expires changes nothing (on a terminating
     benchmark). *)
  let b0 = fir () in
  let prog = Benchmark.compile b0 in
  let inputs = b0.inputs () in
  let a = Asipfb_sim.Interp.run prog ~inputs in
  let b = Asipfb_sim.Interp.run prog ~inputs ~watchdog:(fun () -> false) in
  Alcotest.(check bool) "unexpired watchdog is invisible" true
    (Outcomes.agree a b)

let test_wedged_task_killed_and_classified_timeout () =
  (* The acceptance scenario: a wedged simulation is killed by the
     wall-clock watchdog and the failure is classified `Timeout. *)
  let policy =
    { Supervise.Policy.off with task_timeout_s = Some 0.05 }
  in
  let engine = Engine.create ~jobs:1 ~cache:false ~policy () in
  let started = Unix.gettimeofday () in
  let r =
    Pipeline.run_suite ~engine ~benchmarks:[ wedge ] ~on_error:`Isolate ()
  in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check bool) "killed well before fuel exhaustion" true
    (elapsed < 2.0);
  match r.failures with
  | [ f ] ->
      Alcotest.(check bool) "classified as timeout" true
        (Pipeline.classify_failure f = `Timeout);
      Alcotest.(check int) "timeout counted" 1
        (Engine.stats engine).supervise.timeouts
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 failure, got %d" (List.length l))

(* --- oracle fallback ladder --------------------------------------------- *)

let test_core_crash_falls_back_to_semantics () =
  let b = fir () in
  let prog = Benchmark.compile b in
  let inputs = b.inputs () in
  let clean = Asipfb_sim.Interp.run prog ~inputs in
  let out, diags =
    Fallback.run prog ~inputs ~inject_core_crash:true
      ~benchmark:b.name
  in
  Alcotest.(check bool) "reference result agrees with the core" true
    (Outcomes.agree clean out);
  (match diags with
  | [ d ] ->
      Alcotest.(check (option string)) "degraded diagnostic attached"
        (Some "degraded")
        (List.assoc_opt "kind" d.Diag.context)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 diag, got %d" (List.length l)))

(* A fault stream cannot be replayed, so the degraded run draws from a
   fresh, identically seeded injector: it must reproduce the core's faulted
   run exactly, corruptions included. *)
let test_core_crash_fallback_replays_faults () =
  let module Fault = Asipfb_exec.Fault in
  let b = fir () in
  let prog = Benchmark.compile b in
  let inputs = b.inputs () in
  let config =
    { Fault.seed = 12; reg_corrupt_rate = 0.001;
      mem_fault_rate = 0.001; fuel_cap = None }
  in
  let core_faults = Fault.create config in
  let expected = Asipfb_sim.Interp.run prog ~inputs ~faults:core_faults in
  let fresh = ref [] in
  let fresh_faults () =
    let f = Fault.create config in
    fresh := f :: !fresh;
    f
  in
  let out, _ =
    Fallback.run prog ~inputs
      ~faults:(Fault.create config) ~fresh_faults
      ~inject_core_crash:true ~benchmark:b.name
  in
  Alcotest.(check bool) "faulted reference result agrees with the core" true
    (Outcomes.agree expected out);
  match !fresh with
  | [ f ] ->
      Alcotest.(check bool) "faults were injected" true
        (Fault.injected_total core_faults > 0);
      Alcotest.(check int) "same number of injected faults"
        (Fault.injected_total core_faults)
        (Fault.injected_total f)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 fresh injector, got %d" (List.length l))

(* --- cache self-healing ------------------------------------------------- *)

let entry_file dir =
  (* Cache entries live in digest-prefix subdirectories of [dir]. *)
  let rec walk dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".cache" then [ p ]
           else [])
  in
  match walk dir with
  | [ f ] -> f
  | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l))

let corrupt_with f dir =
  let file = entry_file dir in
  let data = In_channel.with_open_bin file In_channel.input_all in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (f data))

let self_heal_case name corrupter () =
  let dir = fresh_cache_dir () in
  let c1 : string Cache.t = Cache.create ~dir () in
  ignore (Cache.find_or_compute c1 ~key:"abcd" (fun () -> "original"));
  corrupt_with corrupter dir;
  let events = ref [] in
  let c2 : string Cache.t =
    Cache.create ~dir ~on_event:(fun e -> events := e :: !events) ()
  in
  Alcotest.(check string)
    (name ^ ": corrupt entry recomputed")
    "healed"
    (Cache.find_or_compute c2 ~key:"abcd" (fun () -> "healed"));
  Alcotest.(check int) (name ^ ": corruption counted") 1
    (Cache.stats c2).corrupt;
  (match !events with
  | [ Cache.Corrupt_entry { key; _ } ] ->
      Alcotest.(check string) (name ^ ": event names the key") "abcd" key
  | _ -> Alcotest.fail (name ^ ": expected one Corrupt_entry event"));
  Alcotest.(check int) (name ^ ": rewritten to disk") 1
    (Cache.stats c2).stores;
  (* Self-healed: a third cache sees a valid entry again. *)
  let c3 : string Cache.t = Cache.create ~dir () in
  Alcotest.(check string)
    (name ^ ": healed entry loads")
    "healed"
    (Cache.find_or_compute c3 ~key:"abcd" (fun () ->
         Alcotest.fail "healed entry must load from disk"));
  Alcotest.(check int) (name ^ ": healed entry is a disk hit") 1
    (Cache.stats c3).disk_hits

let test_cache_heals_flipped_byte =
  self_heal_case "flip" (fun data ->
      (* Flip one payload byte past the header; the digest must catch it. *)
      let b = Bytes.of_string data in
      let i = String.length data - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      Bytes.to_string b)

let test_cache_heals_truncation =
  self_heal_case "truncate" (fun data ->
      String.sub data 0 (String.length data / 2))

let test_cache_heals_checksum_flip =
  self_heal_case "checksum" (fun data ->
      (* Flip a byte of the stored digest itself. *)
      let b = Bytes.of_string data in
      let i = String.length "ASFBC1\n" (* first byte of the digest *) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b)

let test_cache_heals_garbage =
  self_heal_case "garbage" (fun _ -> "not a cache entry at all")

let test_cache_chaos_mangling_never_served () =
  (* With chaos mangling every write and read, the checksum must turn
     every disk access into a detected corruption or a miss — the
     computed value always wins. *)
  let dir = fresh_cache_dir () in
  let chaos = Chaos.create { seed = 9; rate = 1.0 } in
  let c : string Cache.t = Cache.create ~dir ~chaos () in
  Alcotest.(check string) "first lookup computes" "v1"
    (Cache.find_or_compute c ~key:"k" (fun () -> "v1"));
  let c2 : string Cache.t = Cache.create ~dir ~chaos () in
  Alcotest.(check string) "mangled entry never served" "v2"
    (Cache.find_or_compute c2 ~key:"k" (fun () -> "v2"))

let test_cache_io_error_disables_persistence () =
  (* Point the cache at a path that is a regular file: the first store
     fails with Sys_error, which must degrade persistence, not crash. *)
  let bogus = Filename.temp_file "asipfb_not_a_dir" "" in
  let events = ref [] in
  let c : string Cache.t =
    Cache.create ~dir:bogus ~on_event:(fun e -> events := e :: !events) ()
  in
  Alcotest.(check bool) "starts persistent" true (Cache.persistent c);
  Alcotest.(check string) "lookup still computes" "v"
    (Cache.find_or_compute c ~key:"k" (fun () -> "v"));
  Alcotest.(check bool) "persistence disabled after Sys_error" false
    (Cache.persistent c);
  Alcotest.(check int) "io error counted" 1 (Cache.stats c).io_errors;
  (match !events with
  | [ Cache.Io_error { op; _ } ] ->
      Alcotest.(check string) "store failed" "store" op
  | _ -> Alcotest.fail "expected one Io_error event");
  (* Later lookups neither retry the dead directory nor fail: they
     compute, as a cache without a directory does (values are kept in
     memory by the engine's memo, not here). *)
  Alcotest.(check string) "cache keeps computing without disk" "other"
    (Cache.find_or_compute c ~key:"k" (fun () -> "other"));
  Alcotest.(check int) "no further io errors" 1 (Cache.stats c).io_errors

(* --- chaos end-to-end: retries preserve results -------------------------- *)

let chaos_policy =
  {
    fast_policy with
    retries = 5;
    quarantine_threshold = 0 (* isolate the retry property from quarantine *);
  }

let analyses_equal (a : Pipeline.analysis) (b : Pipeline.analysis) =
  a.prog = b.prog
  && Asipfb_exec.Profile.to_alist a.profile
     = Asipfb_exec.Profile.to_alist b.profile
  && a.scheds = b.scheds
  && Outcomes.agree a.outcome b.outcome

let prop_chaos_run_matches_clean =
  QCheck.Test.make
    ~name:"chaos run with successful retries is identical to fault-free run"
    ~count:8
    QCheck.(
      pair (int_range 0 (List.length Registry.all - 1)) (int_range 0 9999))
    (fun (i, seed) ->
      let b = List.nth Registry.all i in
      let clean =
        Engine.analyze (Engine.sequential ()) b ~verify:`Ir
      in
      let chaotic_engine =
        Engine.create ~jobs:1 ~cache:false ~policy:chaos_policy
          ~chaos:{ Chaos.seed; rate = 0.15 } ()
      in
      match Engine.analyze_all chaotic_engine ~verify:`Ir [ b ] with
      | [ (_, Ok chaotic) ] ->
          analyses_equal clean chaotic
          && clean.verify = chaotic.verify
      | [ (_, Error exn) ] ->
          QCheck.Test.fail_reportf
            "chaos run failed despite retries: %s" (Printexc.to_string exn)
      | _ -> false)

let test_chaos_cache_dir_end_to_end () =
  (* Chaos over a persistent cache: corrupt entries are healed, the
     analysis equals the clean one, and the run records what happened. *)
  let dir = fresh_cache_dir () in
  let b = fir () in
  let clean = Engine.analyze (Engine.sequential ()) b in
  let mk () =
    Engine.create ~jobs:1 ~cache_dir:dir ~policy:chaos_policy
      ~chaos:{ Chaos.seed = 4242; rate = 0.5 } ()
  in
  let run engine =
    match Engine.analyze_all engine [ b ] with
    | [ (_, Ok a) ] -> a
    | [ (_, Error exn) ] -> raise exn
    | _ -> assert false
  in
  let first = run (mk ()) in
  let second = run (mk ()) (* reuses the possibly-mangled directory *) in
  Alcotest.(check bool) "cold chaos run equals clean" true
    (analyses_equal clean first);
  Alcotest.(check bool) "warm chaos run equals clean" true
    (analyses_equal clean second)

let suite =
  [
    ( "supervise",
      [
        Alcotest.test_case "chaos deterministic" `Quick
          test_chaos_deterministic;
        Alcotest.test_case "chaos rates" `Quick test_chaos_rates;
        Alcotest.test_case "retry until success" `Quick
          test_retry_transient_until_success;
        Alcotest.test_case "permanent not retried" `Quick
          test_permanent_not_retried;
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "quarantine" `Quick
          test_quarantine_after_repeated_failures;
        Alcotest.test_case "keyed task gets every retry" `Quick
          test_keyed_task_gets_every_retry;
        Alcotest.test_case "watchdog aborts core" `Quick
          test_watchdog_aborts_core;
        Alcotest.test_case "wedged task classified timeout" `Quick
          test_wedged_task_killed_and_classified_timeout;
        Alcotest.test_case "core crash falls back to oracle" `Quick
          test_core_crash_falls_back_to_semantics;
        Alcotest.test_case "core crash fallback replays faults" `Quick
          test_core_crash_fallback_replays_faults;
        Alcotest.test_case "cache heals flipped byte" `Quick
          test_cache_heals_flipped_byte;
        Alcotest.test_case "cache heals truncation" `Quick
          test_cache_heals_truncation;
        Alcotest.test_case "cache heals checksum flip" `Quick
          test_cache_heals_checksum_flip;
        Alcotest.test_case "cache heals garbage" `Quick
          test_cache_heals_garbage;
        Alcotest.test_case "chaos-mangled entries never served" `Quick
          test_cache_chaos_mangling_never_served;
        Alcotest.test_case "io error disables persistence" `Quick
          test_cache_io_error_disables_persistence;
        QCheck_alcotest.to_alcotest prop_chaos_run_matches_clean;
        Alcotest.test_case "chaos over persistent cache" `Quick
          test_chaos_cache_dir_end_to_end;
      ] );
  ]
