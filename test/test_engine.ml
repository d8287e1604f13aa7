(* Parallel analysis engine: pool semantics, content-keyed caching
   (hit/miss/invalidation, disk round-trip), and the central determinism
   contract — a parallel run is byte-identical to the sequential one for
   every experiment artifact. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Opt_level = Asipfb_sched.Opt_level
module Pipeline = Asipfb.Pipeline
module Engine = Asipfb_engine.Engine
module Cache = Asipfb_engine.Cache
module Pool = Asipfb_engine.Pool
module Metrics = Asipfb_engine.Metrics
module Inflight = Asipfb_engine.Inflight

let fir () = Registry.find "fir"

let fresh_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.temp_dir "asipfb_engine_test" (string_of_int !n)

(* --- pool --------------------------------------------------------------- *)

let test_pool_order () =
  (* Results land in task order no matter how domains interleave. *)
  List.iter
    (fun jobs ->
      let tasks = Array.init 37 (fun i () -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves task order" jobs)
        (Array.init 37 (fun i -> i * i))
        (Pool.run ~jobs tasks))
    [ 1; 2; 4; 13 ]

let test_pool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.run ~jobs:4 [||]);
  Alcotest.(check (array int)) "single" [| 7 |]
    (Pool.run ~jobs:4 [| (fun () -> 7) |])

let test_pool_exception () =
  (* Every task still runs; the lowest-indexed failure is re-raised. *)
  let ran = Array.make 8 false in
  let tasks =
    Array.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 5 || i = 2 then failwith (string_of_int i))
  in
  (match Pool.run ~jobs:3 tasks with
  | _ -> Alcotest.fail "must re-raise"
  | exception Failure msg ->
      Alcotest.(check string) "lowest-indexed failure wins" "2" msg);
  Alcotest.(check (array bool)) "all tasks ran" (Array.make 8 true) ran

(* --- cache unit tests --------------------------------------------------- *)

let test_cache_hit_miss () =
  let c : int Cache.t = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "miss computes" 42
    (Cache.find_or_compute c ~key:"k1" compute);
  Alcotest.(check int) "hit reuses" 42
    (Cache.find_or_compute c ~key:"k1" compute);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "different key recomputes" 42
    (Cache.find_or_compute c ~key:"k2" compute);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "misses" 2 s.misses

let test_cache_disabled () =
  let c : int Cache.t = Cache.create ~enabled:false () in
  let calls = ref 0 in
  let compute () = incr calls; 0 in
  ignore (Cache.find_or_compute c ~key:"k" compute);
  ignore (Cache.find_or_compute c ~key:"k" compute);
  Alcotest.(check int) "disabled cache always computes" 2 !calls

let test_cache_disk_roundtrip () =
  let dir = fresh_cache_dir () in
  let c1 : string Cache.t = Cache.create ~dir () in
  ignore (Cache.find_or_compute c1 ~key:"deadbeef" (fun () -> "payload"));
  Alcotest.(check int) "stored to disk" 1 (Cache.stats c1).stores;
  (* A fresh cache over the same directory — a later process — loads the
     entry from disk instead of recomputing. *)
  let c2 : string Cache.t = Cache.create ~dir () in
  let v =
    Cache.find_or_compute c2 ~key:"deadbeef" (fun () ->
        Alcotest.fail "disk entry must satisfy the lookup")
  in
  Alcotest.(check string) "disk value survives" "payload" v;
  Alcotest.(check int) "counted as disk hit" 1 (Cache.stats c2).disk_hits

let test_cache_corrupt_disk_entry_is_miss () =
  let dir = fresh_cache_dir () in
  let c1 : string Cache.t = Cache.create ~dir () in
  ignore (Cache.find_or_compute c1 ~key:"cafe" (fun () -> "good"));
  (* Truncate the entry on disk (entries live in digest-prefix
     subdirectories): the fresh cache must fall back to computing rather
     than crash. *)
  let rec entry_files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then entry_files p
           else if Filename.check_suffix p ".cache" then [ p ]
           else [])
  in
  (match entry_files dir with
  | [] -> Alcotest.fail "expected a disk entry"
  | files ->
      List.iter
        (fun f ->
          Out_channel.with_open_bin f (fun oc ->
              output_string oc "not marshal data"))
        files);
  let c2 : string Cache.t = Cache.create ~dir () in
  Alcotest.(check string) "corrupt entry recomputed" "recomputed"
    (Cache.find_or_compute c2 ~key:"cafe" (fun () -> "recomputed"));
  Alcotest.(check int) "counted as miss" 1 (Cache.stats c2).misses

(* --- content keys ------------------------------------------------------- *)

let test_key_invalidation_on_source_edit () =
  let b = fir () in
  let edited = { b with Benchmark.source = b.Benchmark.source ^ "\n" } in
  Alcotest.(check bool) "source edit changes base key" true
    (Engine.source_key b <> Engine.source_key edited);
  Alcotest.(check bool) "source edit changes sched key" true
    (Engine.sched_key b Opt_level.O1 <> Engine.sched_key edited Opt_level.O1);
  Alcotest.(check bool) "levels have distinct keys" true
    (Engine.sched_key b Opt_level.O0 <> Engine.sched_key b Opt_level.O1);
  Alcotest.(check bool) "keys are stable" true
    (Engine.source_key b = Engine.source_key (fir ()))

let test_key_distinct_across_benchmarks () =
  let keys = List.map Engine.source_key Registry.all in
  Alcotest.(check int) "all base keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* --- engine caching behavior -------------------------------------------- *)

let test_warm_run_skips_all_tasks () =
  (* The acceptance criterion: a warm cache run of the full suite serves
     every analyze task (12 base + 36 sched) from the cache. *)
  let e = Engine.create ~jobs:1 ~cache:true () in
  ignore (Pipeline.run_suite ~engine:e ~on_error:`Raise ());
  let cold = Engine.stats e in
  Alcotest.(check int) "cold run misses every base" 12 cold.base.misses;
  Alcotest.(check int) "cold run misses every sched" 36 cold.sched.misses;
  Engine.reset_stats e;
  ignore (Pipeline.run_suite ~engine:e ~on_error:`Raise ());
  let warm = Engine.stats e in
  Alcotest.(check int) "warm base hits" 12 warm.base.hits;
  Alcotest.(check int) "warm sched hits" 36 warm.sched.hits;
  Alcotest.(check int) "warm run computes nothing" 0
    (warm.base.misses + warm.sched.misses)

let test_faulted_runs_never_cached () =
  (* Fault-injected outcomes depend on the injection config, which is not
     part of the key — they must not poison the cache. *)
  let e = Engine.create ~jobs:1 ~cache:true () in
  let faults =
    { Asipfb_exec.Fault.seed = 7; reg_corrupt_rate = 0.01;
      mem_fault_rate = 0.0; fuel_cap = None }
  in
  ignore (Engine.analyze_all e ~faults [ fir () ]);
  let s = Engine.stats e in
  Alcotest.(check int) "faulted base not cached" 0
    (s.base.misses + s.base.hits);
  (* A clean analyze afterwards gets a correct, uncorrupted result. *)
  let a = Engine.analyze e (fir ()) in
  Alcotest.(check bool) "clean run after faults self-checks" true
    (Asipfb_exec.Profile.total a.profile > 0)

let test_engine_disk_cache_across_instances () =
  let dir = fresh_cache_dir () in
  let e1 = Engine.create ~jobs:1 ~cache_dir:dir () in
  let a1 = Engine.analyze e1 (fir ()) in
  let e2 = Engine.create ~jobs:1 ~cache_dir:dir () in
  let a2 = Engine.analyze e2 (fir ()) in
  let s2 = Engine.stats e2 in
  Alcotest.(check int) "base served from disk" 1 s2.base.disk_hits;
  Alcotest.(check int) "scheds served from disk" 3 s2.sched.disk_hits;
  Alcotest.(check bool) "disk round-trip preserves the analysis" true
    (a1.prog = a2.prog && a1.profile = a2.profile
    && a1.outcome = a2.outcome && a1.scheds = a2.scheds)

(* --- determinism: parallel == sequential, for every experiment ---------- *)

let render_report ~jobs table =
  let buf = Buffer.create 65536 in
  Asipfb.Experiments.render_report ~jobs table (Buffer.add_string buf);
  Buffer.contents buf

let test_parallel_byte_identical () =
  let seq =
    (Pipeline.run_suite ~engine:(Engine.sequential ()) ~on_error:`Raise ())
      .analyses
  in
  let par =
    (Pipeline.run_suite
       ~engine:(Engine.create ~jobs:4 ~cache:false ())
       ~on_error:`Raise ())
      .analyses
  in
  (* The sequential reference renders in the calling domain; the parallel
     side renders every artifact on the pool as well. *)
  Alcotest.(check string)
    "report byte-identical with analyses and renders at jobs:4"
    (render_report ~jobs:1 (Asipfb.Experiments.artifacts seq))
    (render_report ~jobs:4 (Asipfb.Experiments.artifacts par))

let artifact_count () =
  List.fold_left
    (fun n (s : Metrics.stage_stat) ->
      if s.stage = "artifact" then n + s.count else n)
    0
    (Metrics.snapshot Metrics.global)

let test_render_report_failure_order () =
  (* Two raising entries: output stops after the header of the lower one
     and its exception surfaces, whichever domain finished first. *)
  let table =
    [ ("a", fun () -> "A");
      ("b", fun () -> failwith "b broke");
      ("c", fun () -> "C");
      ("d", fun () -> failwith "d broke") ]
  in
  List.iter
    (fun jobs ->
      let buf = Buffer.create 64 in
      let before = artifact_count () in
      (match
         Asipfb.Experiments.render_report ~jobs table (Buffer.add_string buf)
       with
      | () -> Alcotest.fail "render_report swallowed the failure"
      | exception exn ->
          Alcotest.(check string)
            (Printf.sprintf "lowest-indexed exception at jobs:%d" jobs)
            "Failure(\"b broke\")" (Printexc.to_string exn));
      Alcotest.(check string)
        (Printf.sprintf "printed prefix at jobs:%d" jobs)
        "==== a ====\nA\n==== b ====\n" (Buffer.contents buf);
      Alcotest.(check int)
        (Printf.sprintf "every entry timed at jobs:%d" jobs)
        4
        (artifact_count () - before))
    [ 1; 2 ];
  Alcotest.(check string) "clean table prints every entry"
    "==== a ====\nA\n==== c ====\nC\n"
    (render_report ~jobs:2 [ List.nth table 0; List.nth table 2 ])

let test_parallel_isolation_matches_sequential () =
  let broken : Benchmark.t =
    {
      name = "broken-div0";
      description = "deliberately broken";
      data_input = "none";
      source = "int out[1]; void main() { int z = 0; out[0] = 1 / z; }";
      inputs = (fun () -> []);
      output_regions = [ "out" ];
    }
  in
  let benchmarks = [ fir (); broken; Registry.find "sewha" ] in
  let run engine =
    let r = Pipeline.run_suite ~engine ~benchmarks ~on_error:`Isolate () in
    ( List.map (fun (a : Pipeline.analysis) -> a.benchmark.name) r.analyses,
      List.map
        (fun (f : Pipeline.failure) ->
          (f.failed_benchmark, Asipfb_diag.Diag.to_string f.diag))
        r.failures )
  in
  Alcotest.(check (pair (list string) (list (pair string string))))
    "parallel isolation identical to sequential"
    (run (Engine.sequential ()))
    (run (Engine.create ~jobs:4 ~cache:false ()))

(* --- QCheck: cache round-trips preserve analysis equality --------------- *)

let prop_cache_roundtrip =
  QCheck.Test.make ~name:"disk round-trip preserves analysis equality"
    ~count:6
    QCheck.(int_range 0 (List.length Registry.all - 1))
    (fun i ->
      let b = List.nth Registry.all i in
      let plain = Engine.analyze (Engine.sequential ()) b in
      let dir = fresh_cache_dir () in
      ignore (Engine.analyze (Engine.create ~jobs:1 ~cache_dir:dir ()) b);
      let reloaded =
        Engine.analyze (Engine.create ~jobs:1 ~cache_dir:dir ()) b
      in
      plain.prog = reloaded.prog
      && plain.profile = reloaded.profile
      && plain.outcome = reloaded.outcome
      && plain.scheds = reloaded.scheds)

(* --- metrics ------------------------------------------------------------ *)

let test_metrics_accumulation () =
  let m = Metrics.create () in
  Metrics.add m "sched" ~seconds:0.5;
  Metrics.add m "sched" ~seconds:0.25;
  Metrics.add m "frontend" ~seconds:1.0;
  (match Metrics.snapshot m with
  | [ f; s ] ->
      Alcotest.(check string) "sorted by stage" "frontend" f.Metrics.stage;
      Alcotest.(check int) "frontend count" 1 f.count;
      Alcotest.(check int) "sched count" 2 s.count;
      Alcotest.(check (float 1e-9)) "sched total" 0.75 s.seconds
  | l ->
      Alcotest.fail (Printf.sprintf "expected 2 stages, got %d" (List.length l)));
  Metrics.reset m;
  Alcotest.(check int) "reset clears" 0 (List.length (Metrics.snapshot m))

let test_engine_charges_stages () =
  Metrics.reset Metrics.global;
  ignore (Engine.analyze (Engine.sequential ()) (fir ()));
  let stages =
    List.map (fun s -> s.Metrics.stage) (Metrics.snapshot Metrics.global)
  in
  List.iter
    (fun st ->
      Alcotest.(check bool) (st ^ " recorded") true (List.mem st stages))
    [ "frontend"; "sim"; "sched" ]

(* --- in-flight coalescing ----------------------------------------------- *)

let test_inflight_single_caller () =
  let fl = Inflight.create () in
  let v, outcome = Inflight.run fl ~key:"k" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "led" true (outcome = Inflight.Led);
  (* entry is removed on completion: a second call recomputes *)
  let v2, outcome2 = Inflight.run fl ~key:"k" (fun () -> 43) in
  Alcotest.(check int) "recomputed" 43 v2;
  Alcotest.(check bool) "led again" true (outcome2 = Inflight.Led)

let test_inflight_exception_propagates () =
  let fl = Inflight.create () in
  (match Inflight.run fl ~key:"boom" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* a failed flight leaves no wedged entry behind *)
  let v, _ = Inflight.run fl ~key:"boom" (fun () -> 7) in
  Alcotest.(check int) "key reusable after failure" 7 v

let test_inflight_coalesces_across_domains () =
  let fl = Inflight.create () in
  let computations = Atomic.make 0 in
  let gate = Atomic.make false in
  let body () =
    (* the leader parks here until every joiner has registered on the
       entry, so the overlap is real, not a timing accident *)
    Atomic.incr computations;
    while not (Atomic.get gate) do Domain.cpu_relax () done;
    99
  in
  let task i () =
    if i > 0 then
      (* joiners enter only while the leader is provably inside [body],
         so the in-flight entry is guaranteed to exist when they arrive *)
      while Atomic.get computations < 1 do
        Domain.cpu_relax ()
      done;
    Inflight.run fl ~key:"shared" body
  in
  let opener =
    Domain.spawn (fun () ->
        while (Inflight.stats fl).Inflight.joined < 3 do
          Domain.cpu_relax ()
        done;
        Atomic.set gate true)
  in
  let results = Pool.run ~jobs:4 (Array.init 4 task) in
  Domain.join opener;
  Array.iter (fun (v, _) -> Alcotest.(check int) "shared value" 99 v) results;
  let led =
    Array.to_list results
    |> List.filter (fun (_, o) -> o = Inflight.Led)
    |> List.length
  in
  Alcotest.(check int) "exactly one leader" 1 led;
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computations);
  let st = Inflight.stats fl in
  Alcotest.(check int) "stats led" 1 st.Inflight.led;
  Alcotest.(check int) "stats joined" 3 st.Inflight.joined

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "pool order" `Quick test_pool_order;
        Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_single;
        Alcotest.test_case "pool exception" `Quick test_pool_exception;
        Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
        Alcotest.test_case "cache disk round-trip" `Quick
          test_cache_disk_roundtrip;
        Alcotest.test_case "corrupt disk entry" `Quick
          test_cache_corrupt_disk_entry_is_miss;
        Alcotest.test_case "source edit invalidates" `Quick
          test_key_invalidation_on_source_edit;
        Alcotest.test_case "keys distinct" `Quick
          test_key_distinct_across_benchmarks;
        Alcotest.test_case "warm run skips all tasks" `Quick
          test_warm_run_skips_all_tasks;
        Alcotest.test_case "faulted runs not cached" `Quick
          test_faulted_runs_never_cached;
        Alcotest.test_case "disk cache across engines" `Quick
          test_engine_disk_cache_across_instances;
        Alcotest.test_case "parallel byte-identical" `Slow
          test_parallel_byte_identical;
        Alcotest.test_case "render_report failure order" `Quick
          test_render_report_failure_order;
        Alcotest.test_case "parallel isolation" `Quick
          test_parallel_isolation_matches_sequential;
        QCheck_alcotest.to_alcotest prop_cache_roundtrip;
        Alcotest.test_case "metrics accumulation" `Quick
          test_metrics_accumulation;
        Alcotest.test_case "engine charges stages" `Quick
          test_engine_charges_stages;
        Alcotest.test_case "inflight single caller" `Quick
          test_inflight_single_caller;
        Alcotest.test_case "inflight exception" `Quick
          test_inflight_exception_propagates;
        Alcotest.test_case "inflight coalesces" `Quick
          test_inflight_coalesces_across_domains;
      ] );
  ]
