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
module Memo = Asipfb_util.Memo

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

(* An engine kind keeps what it computed: a repeat is a memo hit that
   runs no supervised task. *)
let test_cache_hit_miss () =
  let engine = Engine.create ~jobs:1 () in
  let k : int Engine.kind = Engine.kind engine "test" in
  let calls = ref 0 in
  let compute _ = incr calls; 42 in
  let ask key =
    Engine.value (Engine.run_task engine k ~key ~name:key compute)
  in
  Alcotest.(check int) "miss computes" 42 (ask "k1");
  Alcotest.(check int) "hit reuses" 42 (ask "k1");
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "different key recomputes" 42 (ask "k2");
  Alcotest.(check int) "only the two misses were supervised" 2
    (Engine.stats engine).supervise.tasks

let test_cache_disabled () =
  let engine = Engine.create ~jobs:1 ~cache:false () in
  let k : int Engine.kind = Engine.kind engine "test" in
  let calls = ref 0 in
  let compute _ = incr calls; 0 in
  let ask () = ignore (Engine.run_task engine k ~key:"k" ~name:"k" compute) in
  ask ();
  ask ();
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

(* A table entry with nothing to settle. *)
let entry (name, render) =
  { Asipfb.Experiments.name; needs = (fun () -> []); render }

let test_render_report_failure_order () =
  (* Two raising entries: output stops after the header of the lower one
     and its exception surfaces, whichever domain finished first. *)
  let table =
    List.map entry
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

(* --- the artifact table's shared results -------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let stage_count stage =
  List.fold_left
    (fun n (s : Metrics.stage_stat) -> if s.stage = stage then n + s.count else n)
    0
    (Metrics.snapshot Metrics.global)

let counted stages f =
  let before = List.map stage_count stages in
  let v = f () in
  (v, List.map2 (fun s b -> stage_count s - b) stages before)

(* The public functions one at a time, as a caller outside the table
   (the benchmark probe) drives them, printed as the report prints. *)
let standalone suite =
  let module E = Asipfb.Experiments in
  let uarch = Asipfb_asip.Uarch.flat in
  [ ("table1", fun () -> E.table1 ());
    ("figure3", fun () -> E.figure_combined suite ~length:2);
    ("figure4", fun () -> E.figure_combined suite ~length:4);
    ("figure_l3", fun () -> E.figure_combined suite ~length:3);
    ("figure_l5", fun () -> E.figure_combined suite ~length:5);
    ("table2", fun () -> E.table2 suite);
    ("figure5", fun () -> E.figure_per_benchmark suite ~length:2);
    ("figure6", fun () -> E.figure_per_benchmark suite ~length:4);
    ("table3", fun () -> E.table3 suite);
    ("ilp", fun () -> E.ilp_report suite);
    ("asip", fun () -> E.asip_report ~uarch suite);
    ("vliw", fun () -> E.vliw_report ~uarch suite);
    ("resched", fun () -> E.resched_report ~uarch suite);
    ("ablation_pipelining", fun () -> E.ablation_pipelining suite);
    ("ablation_cleanup", fun () -> E.ablation_cleanup suite);
    ("codegen", fun () -> E.codegen_report ~uarch suite);
    ("timing", fun () -> E.timing_report ~uarch suite);
    ("ablation_motion", fun () -> E.ablation_motion suite);
    ("opmix", fun () -> E.opmix_report suite);
    ("extra", fun () -> E.extra_report suite);
    ("validation_unroll", fun () -> E.validation_unroll suite) ]
  |> List.map (fun (name, render) ->
         Printf.sprintf "==== %s ====\n%s\n" name (render ()))
  |> String.concat ""

let sequential_suite () =
  (Pipeline.run_suite ~engine:(Engine.sequential ()) ~on_error:`Raise ())
    .analyses

let test_table_equals_standalone () =
  let suite = sequential_suite () in
  let want, detects = counted [ "detect" ] (fun () -> standalone suite) in
  Alcotest.(check (list int))
    "the standalone functions keep their query count" [ 520 ] detects;
  Alcotest.(check (list string)) "table and standalone name the same artifacts"
    (List.map
       (fun (a : Asipfb.Experiments.artifact) -> a.name)
       (Asipfb.Experiments.artifacts suite))
    (String.split_on_char '\n' want
    |> List.filter_map (fun l ->
           if String.starts_with ~prefix:"==== " l then
             Some (String.sub l 5 (String.length l - 10))
           else None));
  List.iter
    (fun jobs ->
      let engine = Engine.create ~jobs ~cache:false () in
      Alcotest.(check string)
        (Printf.sprintf "table at jobs:%d equals the standalone functions" jobs)
        want
        (render_report ~jobs (Asipfb.Experiments.artifacts ~engine suite)))
    [ 1; 2; 4 ]

(* A reference run whose first output value is off by one: the chained
   program's output check fails, so the product's measurement fails
   while its design stands. *)
let tampered_fir () =
  let module Memory = Asipfb_exec.Memory in
  let module Value = Asipfb_exec.Value in
  let a = Pipeline.analyze (fir ()) in
  let region = List.hd a.benchmark.output_regions in
  let memory = Memory.create a.prog in
  List.iter
    (fun r -> Memory.seed memory r (Memory.dump a.outcome.memory r))
    (Memory.regions a.outcome.memory);
  Memory.store memory region 0
    (match Memory.load memory region 0 with
    | Value.Vint n -> Value.Vint (n + 1)
    | Value.Vfloat f -> Value.Vfloat (f +. 1000.0));
  { a with outcome = { a.outcome with memory } }

let test_failed_need_reraised_by_first_consumer () =
  let suite = [ tampered_fir () ] in
  let printed =
    List.map
      (fun jobs ->
        let engine = Engine.create ~jobs ~cache:false () in
        let buf = Buffer.create 4096 in
        (match
           Asipfb.Experiments.render_report ~jobs
             (Asipfb.Experiments.artifacts ~engine suite)
             (Buffer.add_string buf)
         with
        | () -> Alcotest.fail "a failed measurement printed a full report"
        | exception Asipfb_diag.Diag.Diag_error d ->
            Alcotest.(check (option string))
              (Printf.sprintf "the measurement's failure at jobs:%d" jobs)
              (Some "asip-output-mismatch")
              (List.assoc_opt "kind" d.context));
        let out = Buffer.contents buf in
        Alcotest.(check bool)
          (Printf.sprintf "output stops at its first consumer at jobs:%d" jobs)
          true
          (String.ends_with ~suffix:"\n==== codegen ====\n" out);
        out)
      [ 1; 2 ]
  in
  let out = List.hd printed in
  Alcotest.(check bool) "the design's entries before it print" true
    (contains out "==== asip ====\nfir: ");
  Alcotest.(check string) "same bytes at jobs:1 and jobs:2" out
    (List.nth printed 1)

let test_report_work_counted () =
  let suite = sequential_suite () in
  let engine = Engine.create ~jobs:2 ~cache:false () in
  let _, counts =
    counted [ "product"; "variant"; "query"; "detect" ] (fun () ->
        render_report ~jobs:2 (Asipfb.Experiments.artifacts ~engine suite))
  in
  match counts with
  | [ products; variants; queries; detects ] ->
      Alcotest.(check int) "one product per kernel, plus the extra mix"
        (List.length suite + List.length Asipfb_bench_suite.Extra.all)
        products;
      Alcotest.(check int) "one cleanup and one unrolled variant per kernel"
        (2 * List.length suite) variants;
      Alcotest.(check int) "one detection per distinct query" queries detects;
      Alcotest.(check bool)
        (Printf.sprintf "far fewer detections than the standalone 520 (%d)"
           detects)
        true
        (detects < 260)
  | _ -> assert false

(* A cleaned variant takes the base profile restricted to the ops it
   kept instead of a run of its own; a run of the cleaned program stays
   the oracle, on every kernel of the suite and the extra mix and on a
   sample of generated programs. *)
let test_cleanup_profile_derived () =
  let module Tasks = Asipfb.Tasks in
  let module Profile = Asipfb_exec.Profile in
  let corpus =
    List.init 24 (fun index -> Asipfb_corpus.Gen.benchmark ~seed:5 ~index ())
  in
  List.iter
    (fun (b : Benchmark.t) ->
      let a = Pipeline.analyze b in
      let v = Tasks.compute_variant Tasks.Cleanup a in
      let run = Asipfb_sim.Interp.run v.v_prog ~inputs:(b.inputs ()) in
      Alcotest.(check (list (pair int int)))
        (b.name ^ ": derived profile equals a run of the cleaned program")
        (Profile.to_alist run.profile)
        (Profile.to_alist v.v_profile))
    (Registry.all @ Asipfb_bench_suite.Extra.all @ corpus)

(* The extra mix keeps going like the suite under [--keep-going]: a
   chaos fault that fails one mix benchmark leaves it out of [extra],
   reports it once, and the report still reaches [validation_unroll]. *)
let chaos_table ?on_skip ~jobs () =
  (* Chaos seed 17 at rate 0.1, no retries: acs's analysis fails, every
     other task of the mix succeeds. *)
  let engine =
    Engine.create ~jobs ~cache:false
      ~policy:Asipfb_supervise.Supervise.Policy.off
      ~chaos:{ Asipfb_supervise.Chaos.seed = 17; rate = 0.1 } ()
  in
  Asipfb.Experiments.artifacts ~engine ?on_skip []

let test_keep_going_extra_mix () =
  let outs =
    List.map
      (fun jobs ->
        let skipped = ref [] in
        let table =
          chaos_table ~jobs
            ~on_skip:(fun f -> skipped := f.failed_benchmark :: !skipped)
            ()
        in
        let out = render_report ~jobs table in
        Alcotest.(check (list string))
          (Printf.sprintf "acs skipped once at jobs:%d" jobs)
          [ "acs" ] !skipped;
        out)
      [ 1; 2 ]
  in
  let out = List.hd outs in
  Alcotest.(check bool) "the report reaches validation_unroll" true
    (contains out "==== validation_unroll ====\n");
  let extra =
    let rec after = function
      | " extra " :: text :: _ -> text
      | _ :: rest -> after rest
      | [] -> Alcotest.fail "no extra section"
    in
    after (List.filter (( <> ) "") (String.split_on_char '=' out))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " stays in the mix") true
        (contains extra ("\n" ^ name ^ " (")))
    [ "matmul"; "xcorr"; "quant" ];
  Alcotest.(check bool) "acs is left out" false (contains extra "acs");
  Alcotest.(check string) "same bytes at jobs:1 and jobs:2" out
    (List.nth outs 1);
  (* Without [on_skip] the same fault stops the report at [extra]. *)
  match render_report ~jobs:1 (chaos_table ~jobs:1 ()) with
  | _ -> Alcotest.fail "a failed mix benchmark printed a full report"
  | exception Asipfb_supervise.Chaos.Injected _ -> ()

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

(* --- one task path ------------------------------------------------------ *)

let analyses_equal (a : Pipeline.analysis) (b : Pipeline.analysis) =
  a.benchmark.name = b.benchmark.name
  && a.prog = b.prog
  && Asipfb_exec.Profile.to_alist a.profile
     = Asipfb_exec.Profile.to_alist b.profile
  && Outcomes.agree a.outcome b.outcome
  && a.scheds = b.scheds && a.verify = b.verify

(* Every task of an uncached call runs once, whichever domain pulls it
   first, and the results do not depend on [jobs]. *)
let test_each_stage_once_per_call () =
  let bs = List.map Registry.find [ "fir"; "iir"; "sewha" ] in
  let n = List.length bs in
  let stages =
    [ "frontend"; "sim"; "sched"; "verify-ir"; "verify-sched"; "verify-tv" ]
  in
  let runs =
    List.map
      (fun jobs ->
        let engine = Engine.create ~jobs ~cache:false () in
        let results, counts =
          counted stages (fun () -> Engine.analyze_all engine ~verify:`Tv bs)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "stage counts at jobs:%d" jobs)
          [ n; n; 3 * n; n; 3 * n; 3 * n ]
          counts;
        List.map
          (function
            | _, Ok a -> a
            | b, Error exn ->
                Alcotest.failf "%s failed: %s" b.Benchmark.name
                  (Printexc.to_string exn))
          results)
      [ 1; 2; 4 ]
  in
  let first = List.hd runs in
  List.iteri
    (fun i run ->
      Alcotest.(check bool)
        (Printf.sprintf "run %d equals the jobs:1 run" i)
        true
        (List.for_all2 analyses_equal first run))
    runs

(* Two callers that ask for the same fresh benchmark at once share one
   base computation: the second waits on the first's flight.  The first
   parks inside its simulation (the benchmark's input generator) until
   the second has provably joined, so the overlap is forced, not timed. *)
let test_overlapping_analyses_share_base () =
  let entered = Atomic.make 0 and gate = Atomic.make false in
  let fir = fir () in
  let b =
    { fir with
      Benchmark.name = "fir-overlap";
      inputs =
        (fun () ->
          Atomic.incr entered;
          while not (Atomic.get gate) do Domain.cpu_relax () done;
          fir.inputs ()) }
  in
  let engine = Engine.create ~jobs:1 ~cache:true () in
  let first = Domain.spawn (fun () -> Engine.analyze engine b) in
  while Atomic.get entered < 1 do Domain.cpu_relax () done;
  let second = Domain.spawn (fun () -> Engine.analyze engine b) in
  (* Without coalescing the second caller would enter the generator
     itself; open the gate either way so the test cannot hang. *)
  while Engine.joined engine < 1 && Atomic.get entered < 2 do
    Domain.cpu_relax ()
  done;
  Atomic.set gate true;
  let a1 = Domain.join first and a2 = Domain.join second in
  Alcotest.(check int) "one base computation" 1 (Atomic.get entered);
  Alcotest.(check int) "one base cache miss" 1
    (Engine.stats engine).base.misses;
  Alcotest.(check bool) "both callers get the analysis" true
    (analyses_equal a1 a2)

(* A task whose input failed returns that failure without running. *)
let test_failed_base_stops_its_tasks () =
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
  let engine =
    Engine.create ~jobs:2 ~cache:false
      ~policy:Asipfb_supervise.Supervise.Policy.off ()
  in
  let results, counts =
    counted [ "sched"; "verify-ir"; "verify-sched"; "verify-tv" ] (fun () ->
        Engine.analyze_all engine ~verify:`Tv [ broken; fir () ])
  in
  (match results with
  | [ (_, Error (Asipfb_sim.Interp.Runtime_error _)); (_, Ok _) ] -> ()
  | [ (_, Error exn); _ ] ->
      Alcotest.failf "expected the base's trap, got %s"
        (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected the broken base to fail and fir to pass");
  Alcotest.(check (list int)) "only fir's sched and verify bodies ran"
    [ 3; 1; 3; 3 ] counts;
  Alcotest.(check int) "supervised tasks: two bases and fir's ten" 12
    (Engine.stats engine).supervise.tasks

(* A repeated analysis on a cached engine is served before supervision;
   without the cache it runs again. *)
let test_repeat_analysis_served_from_memo () =
  let engine = Engine.create ~jobs:1 () in
  ignore (Engine.analyze engine (fir ()));
  let tasks = (Engine.stats engine).supervise.tasks in
  ignore (Engine.analyze engine (fir ()));
  let s = Engine.stats engine in
  Alcotest.(check int) "one base hit" 1 s.base.hits;
  Alcotest.(check int) "no further supervised task" tasks s.supervise.tasks;
  let uncached = Engine.create ~jobs:1 ~cache:false () in
  let _, counts =
    counted [ "sim" ] (fun () ->
        ignore (Engine.analyze uncached (fir ()));
        ignore (Engine.analyze uncached (fir ())))
  in
  Alcotest.(check (list int)) "uncached engine simulates twice" [ 2 ] counts

(* --- the memo ------------------------------------------------------------ *)

let status =
  Alcotest.testable
    (fun ppf (st : Memo.status) ->
      Format.pp_print_string ppf
        (match st with Hit -> "hit" | Joined -> "joined" | Led -> "led"))
    ( = )

(* At capacity 0 a memo keeps nothing: a second ask recomputes. *)
let test_inflight_single_caller () =
  let m = Memo.create ~capacity:0 () in
  let v, st = Memo.find_or_run m ~key:"k" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.check status "led" Memo.Led st;
  let v2, st2 = Memo.find_or_run m ~key:"k" (fun () -> 43) in
  Alcotest.(check int) "recomputed" 43 v2;
  Alcotest.check status "led again" Memo.Led st2;
  Alcotest.(check int) "nothing kept" 0 (Memo.size m)

let test_inflight_exception_propagates () =
  let m = Memo.create () in
  (match Memo.find_or_run m ~key:"boom" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  (* a raise is not kept: the key is computed afresh *)
  let v, st = Memo.find_or_run m ~key:"boom" (fun () -> 7) in
  Alcotest.(check int) "key reusable after failure" 7 v;
  Alcotest.check status "led after failure" Memo.Led st

(* [joiners] askers enter only while the leader is provably inside its
   computation, which waits until all of them are registered, so the
   overlap is real, not a timing accident.  Returns every ask's result
   and how many computations ran. *)
let overlapping_asks m ~joiners body =
  let computations = Atomic.make 0 in
  let gate = Atomic.make false in
  let compute () =
    Atomic.incr computations;
    while not (Atomic.get gate) do Domain.cpu_relax () done;
    body ()
  in
  let task i () =
    if i > 0 then
      while Atomic.get computations < 1 do Domain.cpu_relax () done;
    match Memo.find_or_run m ~key:"shared" compute with
    | r -> Ok r
    | exception exn -> Error exn
  in
  let opener =
    Domain.spawn (fun () ->
        while (Memo.stats m).joined < joiners do Domain.cpu_relax () done;
        Atomic.set gate true)
  in
  let results = Pool.run ~jobs:(joiners + 1) (Array.init (joiners + 1) task) in
  Domain.join opener;
  (results, Atomic.get computations)

let test_inflight_coalesces_across_domains () =
  let m = Memo.create ~capacity:0 () in
  let results, computations = overlapping_asks m ~joiners:3 (fun () -> 99) in
  let values = Array.to_list results |> List.map Result.get_ok in
  List.iter (fun (v, _) -> Alcotest.(check int) "shared value" 99 v) values;
  Alcotest.(check int) "exactly one leader" 1
    (List.length (List.filter (fun (_, st) -> st = Memo.Led) values));
  Alcotest.(check int) "exactly one computation" 1 computations;
  let st = Memo.stats m in
  Alcotest.(check int) "stats led" 1 st.led;
  Alcotest.(check int) "stats joined" 3 st.joined

let test_memo_keeps_values () =
  let m = Memo.create () in
  ignore (Memo.find_or_run m ~key:"k" (fun () -> 1));
  let v, st = Memo.find_or_run m ~key:"k" (fun () -> 2) in
  Alcotest.(check int) "kept value" 1 v;
  Alcotest.check status "hit" Memo.Hit st;
  Alcotest.(check int) "one hit" 1 (Memo.stats m).hits;
  Alcotest.(check int) "one value held" 1 (Memo.size m)

(* At capacity [n] the least recently used value is the one evicted. *)
let test_memo_lru_eviction () =
  let m = Memo.create ~capacity:2 () in
  let ask key = snd (Memo.find_or_run m ~key (fun () -> key)) in
  ignore (ask "a");
  ignore (ask "b");
  Alcotest.check status "a held" Memo.Hit (ask "a");
  ignore (ask "c");
  Alcotest.(check int) "capacity respected" 2 (Memo.size m);
  Alcotest.check status "a, used last, survives" Memo.Hit (ask "a");
  Alcotest.check status "c survives" Memo.Hit (ask "c");
  Alcotest.check status "b, least recently used, was evicted" Memo.Led
    (ask "b")

let test_memo_raise_shared_not_kept () =
  let m = Memo.create () in
  let results, computations =
    overlapping_asks m ~joiners:2 (fun () -> failwith "leader failed")
  in
  Alcotest.(check int) "one computation" 1 computations;
  Array.iter
    (function
      | Error (Failure msg) ->
          Alcotest.(check string) "every asker gets the leader's raise"
            "leader failed" msg
      | _ -> Alcotest.fail "expected the leader's exception")
    results;
  Alcotest.(check int) "nothing kept" 0 (Memo.size m);
  Alcotest.check status "next ask computes afresh" Memo.Led
    (snd (Memo.find_or_run m ~key:"shared" (fun () -> 0)))

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
        Alcotest.test_case "table equals standalone functions" `Slow
          test_table_equals_standalone;
        Alcotest.test_case "failed need re-raised by first consumer" `Quick
          test_failed_need_reraised_by_first_consumer;
        Alcotest.test_case "report computes each result once" `Slow
          test_report_work_counted;
        Alcotest.test_case "keep-going extra mix" `Quick
          test_keep_going_extra_mix;
        Alcotest.test_case "parallel isolation" `Quick
          test_parallel_isolation_matches_sequential;
        QCheck_alcotest.to_alcotest prop_cache_roundtrip;
        Alcotest.test_case "metrics accumulation" `Quick
          test_metrics_accumulation;
        Alcotest.test_case "engine charges stages" `Quick
          test_engine_charges_stages;
        Alcotest.test_case "each stage once per call" `Quick
          test_each_stage_once_per_call;
        Alcotest.test_case "overlapping analyses share base" `Quick
          test_overlapping_analyses_share_base;
        Alcotest.test_case "failed base stops its tasks" `Quick
          test_failed_base_stops_its_tasks;
        Alcotest.test_case "inflight single caller" `Quick
          test_inflight_single_caller;
        Alcotest.test_case "inflight exception" `Quick
          test_inflight_exception_propagates;
        Alcotest.test_case "inflight coalesces" `Quick
          test_inflight_coalesces_across_domains;
        Alcotest.test_case "memo keeps values" `Quick test_memo_keeps_values;
        Alcotest.test_case "memo LRU eviction" `Quick test_memo_lru_eviction;
        Alcotest.test_case "memo raise shared, not kept" `Quick
          test_memo_raise_shared_not_kept;
        Alcotest.test_case "repeat analysis served from memo" `Quick
          test_repeat_analysis_served_from_memo;
        Alcotest.test_case "cleanup profile derived from base" `Quick
          test_cleanup_profile_derived;
      ] );
  ]
