module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Diag = Asipfb_diag.Diag
module Fault = Asipfb_exec.Fault
module Supervise = Asipfb_supervise.Supervise
module Chaos = Asipfb_supervise.Chaos

type analysis = {
  benchmark : Benchmark.t;
  prog : Asipfb_ir.Prog.t;
  profile : Asipfb_exec.Profile.t;
  outcome : Asipfb_sim.Interp.outcome;
  scheds : (Opt_level.t * Schedule.t) list;
  verify : Diag.t list;
}

type verify_mode = Asipfb_verify.Verify.mode

(* The cached unit of the base phase.  The benchmark itself is excluded
   (its input generator is a closure, which Marshal rejects); it is
   reattached from the caller's handle when the analysis is assembled. *)
type base = { prog : Asipfb_ir.Prog.t; outcome : Asipfb_sim.Interp.outcome }

type t = {
  jobs : int;
  uarch : string;
  sup : Supervise.t;
  base_cache : base Cache.t;
  sched_cache : Schedule.t Cache.t;
  verify_cache : Diag.t list Cache.t;
  new_cache : 'a. string -> 'a Cache.t;
      (* A further payload cache under the engine's settings (directory,
         chaos, corruption events), labelled for its diagnostics. *)
}

type stats = {
  base : Cache.stats;
  sched : Cache.stats;
  verify : Cache.stats;
  supervise : Supervise.stats;
}

(* Bump on any change to the analysis semantics or payload layout: the
   revision is part of every key, so old disk entries simply stop
   matching. *)
let schema_revision = "asipfb-engine-5"

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let content_key parts = key (schema_revision :: parts)

(* Base payloads embed simulated outcomes, so the key also carries the
   execution-core revision: a semantics change in the simulator must
   invalidate cached profiles even when the source is unchanged. *)
(* Every key carries the machine-description identity: analyses are
   uarch-independent today, but downstream consumers (timing reports,
   daemon memos) key on these digests, so two uarchs must never share an
   entry. *)
let source_key ?(uarch = "flat") (b : Benchmark.t) =
  key
    [ schema_revision; Asipfb_exec.Code.version; "base"; uarch; b.name;
      b.source ]

let sched_key ?(uarch = "flat") (b : Benchmark.t) level =
  key
    [ schema_revision; "sched"; uarch; b.name; b.source;
      Opt_level.to_string level ]

let verify_ir_key ?(uarch = "flat") (b : Benchmark.t) =
  key [ schema_revision; "verify-ir"; uarch; b.name; b.source ]

let verify_tv_key ?(uarch = "flat") (b : Benchmark.t) level =
  key
    [ schema_revision; "verify-tv"; uarch; b.name; b.source;
      Opt_level.to_string level ]

let verify_sched_key ?(uarch = "flat") (b : Benchmark.t) level =
  key
    [ schema_revision; "verify-sched"; uarch; b.name; b.source;
      Opt_level.to_string level ]

let cache_diag label = function
  | Cache.Corrupt_entry { key; reason } ->
      Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
        ~context:
          [ ("kind", "cache-corrupt"); ("cache", label); ("key", key);
            ("reason", reason) ]
        (Printf.sprintf
           "corrupt %s cache entry detected (%s); deleted and recomputed"
           label reason)
  | Cache.Io_error { op; message } ->
      Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
        ~context:[ ("kind", "cache-io-error"); ("cache", label); ("op", op) ]
        (Printf.sprintf
           "cache %s failed (%s); disk persistence disabled for this run" op
           message)

let create ?jobs ?cache_dir ?(cache = true) ?policy ?chaos
    ?(uarch = "flat") () =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let sup = Supervise.create ?policy ?chaos () in
  let mk label =
    Cache.create ?dir:cache_dir ~enabled:cache ?chaos:(Supervise.chaos sup)
      ~on_event:(fun ev -> Supervise.note_degraded sup (cache_diag label ev))
      ()
  in
  {
    jobs;
    uarch;
    sup;
    base_cache = mk "base";
    sched_cache = mk "sched";
    verify_cache = mk "verify";
    new_cache = mk;
  }

let sequential () =
  create ~jobs:1 ~cache:false ~policy:Supervise.Policy.off ()

let jobs t = t.jobs
let uarch t = t.uarch
let supervisor t = t.sup

let stats t =
  {
    base = Cache.stats t.base_cache;
    sched = Cache.stats t.sched_cache;
    verify = Cache.stats t.verify_cache;
    supervise = Supervise.stats t.sup;
  }

let reset_stats t =
  Cache.reset_stats t.base_cache;
  Cache.reset_stats t.sched_cache;
  Cache.reset_stats t.verify_cache

(* --- keyed task kinds ------------------------------------------------------

   Results derived from an analysis (a transformed program, an ASIP
   product, a detection query) are keyed tasks of their own: cached under
   their content key, computed once across overlapping callers, and run
   under the supervisor like base and sched tasks. *)

type 'a kind = {
  cache : 'a Cache.t;
  flight : ('a, exn * Printexc.raw_backtrace) result Inflight.t;
}

let kind t label = { cache = t.new_cache label; flight = Inflight.create () }

(* A keyed task runs without a supervision group: one failing result
   never takes its benchmark's other results with it, and [--retries N]
   gives it N+1 attempts. *)
let run_task t k ~key ~name f =
  fst
    (Inflight.run k.flight ~key (fun () ->
         let trace = ref (Printexc.get_callstack 0) in
         let body _ctx =
           try Cache.find_or_compute k.cache ~key f
           with exn ->
             trace := Printexc.get_raw_backtrace ();
             raise exn
         in
         match Supervise.run t.sup ~name body with
         | Ok v -> Ok v
         | Error exn -> Error (exn, !trace)))

let derive_faults (config : Fault.config) (b : Benchmark.t) =
  Fault.create { config with seed = config.seed lxor Hashtbl.hash b.name }

let compute_base t ?faults ?(ctx : Supervise.ctx option) (b : Benchmark.t) =
  let prog =
    Metrics.timed Metrics.global "frontend" (fun () -> Benchmark.compile b)
  in
  let injector = Option.map (fun c -> derive_faults c b) faults in
  let watchdog = Option.bind ctx (fun c -> c.Supervise.watchdog) in
  let attempt = match ctx with Some c -> c.Supervise.attempt | None -> 1 in
  (* The chaos "exec-core" seam: a simulated core crash exercises the
     degradation ladder onto the reference semantics; keyed per attempt so
     a retry can succeed. *)
  let inject_core_crash =
    match Supervise.chaos t.sup with
    | Some c ->
        Chaos.core_crash c ~key:(Printf.sprintf "%s#%d" b.name attempt)
    | None -> false
  in
  let cross_check = (Supervise.policy t.sup).Supervise.Policy.cross_check in
  let outcome, degrade_diags =
    Metrics.timed Metrics.global "sim" (fun () ->
        Fallback.run prog ~inputs:(b.inputs ()) ?faults:injector
          ?fresh_faults:(Option.map (fun c () -> derive_faults c b) faults)
          ?watchdog ~inject_core_crash ~cross_check ~benchmark:b.name)
  in
  List.iter (Supervise.note_degraded t.sup) degrade_diags;
  (* The self-check turns silent corruption into a diagnostic before the
     poisoned profile can reach the analyzer. *)
  (match injector with
  | Some inj when Fault.enabled inj.config -> (
      match Benchmark.self_check b outcome with
      | Ok () -> ()
      | Error msg ->
          raise
            (Diag.Diag_error
               (Diag.make ~stage:Diag.Simulation ~context:(Fault.summary inj)
                  msg)))
  | _ -> ());
  { prog; outcome }

(* Fault-injected outcomes depend on the injection config, which is not
   part of the content key — never cache them. *)
let base t ?faults ?ctx b =
  match faults with
  | Some _ -> compute_base t ?faults ?ctx b
  | None ->
      Cache.find_or_compute t.base_cache ~key:(source_key ~uarch:t.uarch b)
        (fun () ->
          compute_base t ?ctx b)

let sched_for t (b : Benchmark.t) prog level =
  Cache.find_or_compute t.sched_cache ~key:(sched_key ~uarch:t.uarch b level)
    (fun () ->
      Metrics.timed Metrics.global "sched" (fun () ->
          Schedule.optimize ~level prog))

(* Verify tasks are cached like sched tasks: findings depend only on the
   source (IR checks) or on (source, level) (schedule checks), both
   covered by the content key.  Each checker family has its own metrics
   stage ("verify-ir", "verify-sched", "verify-tv"), named like its cache
   key family, so --timings shows where verification time goes. *)
let verify_ir_for t (b : Benchmark.t) prog =
  Cache.find_or_compute t.verify_cache ~key:(verify_ir_key ~uarch:t.uarch b)
    (fun () ->
      Metrics.timed Metrics.global "verify-ir" (fun () ->
          Asipfb_verify.Verify.lint_source b.source
          @ Asipfb_verify.Verify.check_ir prog))

let verify_sched_for t (b : Benchmark.t) prog level sched =
  Cache.find_or_compute t.verify_cache
    ~key:(verify_sched_key ~uarch:t.uarch b level)
    (fun () ->
      Metrics.timed Metrics.global "verify-sched" (fun () ->
          Asipfb_verify.Verify.check_schedule ~original:prog sched))

let verify_tv_for t (b : Benchmark.t) prog level sched =
  Cache.find_or_compute t.verify_cache
    ~key:(verify_tv_key ~uarch:t.uarch b level)
    (fun () ->
      Metrics.timed Metrics.global "verify-tv" (fun () ->
          Asipfb_verify.Verify.check_refinement ~original:prog sched))

let analyze_all t ?(verify = `Off) ?faults benchmarks =
  let bs = Array.of_list benchmarks in
  (* Every task body runs under the supervisor: retry/backoff for
     transient failures, quarantine gating per benchmark, chaos
     injection.  Supervise.run returns the (value, exn) result the
     isolation logic below already expects. *)
  let supervised ~group ~name f = Supervise.run t.sup ~group ~name f in
  let pool_run tasks =
    Pool.run ~jobs:t.jobs
      ~on_spawn_failure:(fun exn ->
        Supervise.note_degraded t.sup
          (Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
             ~context:[ ("kind", "pool-degraded") ]
             ("domain spawn failed; continuing with fewer workers: "
             ^ Printexc.to_string exn)))
      tasks
  in
  (* Phase 1: one base task per benchmark, failures isolated. *)
  let bases =
    pool_run
      (Array.map
         (fun (b : Benchmark.t) () ->
           supervised ~group:b.name ~name:("base:" ^ b.name) (fun ctx ->
               base t ?faults ~ctx b))
         bs)
  in
  (* Phase 2: one sched task per (benchmark, level); a benchmark whose
     base failed contributes no-op tasks. *)
  let levels = Array.of_list Opt_level.all in
  let nl = Array.length levels in
  let sched_results =
    pool_run
      (Array.init
         (Array.length bs * nl)
         (fun idx () ->
           let bi = idx / nl and li = idx mod nl in
           match bases.(bi) with
           | Error _ -> Error Exit (* placeholder; base error is reported *)
           | Ok base ->
               let b = bs.(bi) in
               supervised ~group:b.name
                 ~name:
                   (Printf.sprintf "sched:%s@%s" b.name
                      (Opt_level.to_string levels.(li)))
                 (fun _ctx -> sched_for t b base.prog levels.(li))))
  in
  (* Phase 3 (optional): verify tasks — per benchmark for the IR checks,
     plus per (benchmark, level) for the schedule IR checks under [`Full],
     plus per (benchmark, level) for translation validation under [`Tv].
     Laid out as [nb] IR slots, then [nb × nl] schedule slots, then
     [nb × nl] refinement slots. *)
  let nb = Array.length bs in
  let verify_results =
    match verify with
    | `Off -> [||]
    | (`Ir | `Full | `Tv) as mode ->
        let ir_task bi () =
          match bases.(bi) with
          | Error _ -> Error Exit
          | Ok base ->
              let b = bs.(bi) in
              supervised ~group:b.name ~name:("verify-ir:" ^ b.name)
                (fun _ctx -> verify_ir_for t b base.prog)
        in
        let per_level_task label run idx () =
          let bi = idx / nl and li = idx mod nl in
          match (bases.(bi), sched_results.((bi * nl) + li)) with
          | Ok base, Ok s ->
              let b = bs.(bi) in
              supervised ~group:b.name
                ~name:
                  (Printf.sprintf "%s:%s@%s" label b.name
                     (Opt_level.to_string levels.(li)))
                (fun _ctx -> run b base.prog levels.(li) s)
          | _ -> Error Exit
        in
        let sched_task = per_level_task "verify-sched" (verify_sched_for t) in
        let tv_task = per_level_task "verify-tv" (verify_tv_for t) in
        let tasks =
          match mode with
          | `Ir -> Array.init nb ir_task
          | `Full ->
              Array.append (Array.init nb ir_task)
                (Array.init (nb * nl) sched_task)
          | `Tv ->
              Array.concat
                [ Array.init nb ir_task;
                  Array.init (nb * nl) sched_task;
                  Array.init (nb * nl) tv_task ]
        in
        pool_run tasks
  in
  let verify_for bi =
    if verify = `Off then Ok []
    else
      match verify_results.(bi) with
      | Error exn -> Error exn
      | Ok ir ->
          (* Per-level findings of one segment (schedule checks at offset
             [nb], refinement at [nb + nb·nl]), concatenated in level
             order. *)
          let segment off =
            let rec go li acc =
              if li = nl then Ok (List.concat (List.rev acc))
              else
                match verify_results.(off + (bi * nl) + li) with
                | Ok ds -> go (li + 1) (ds :: acc)
                | Error exn -> Error exn
            in
            go 0 []
          in
          let offsets =
            match verify with
            | `Off | `Ir -> []
            | `Full -> [ nb ]
            | `Tv -> [ nb; nb + (nb * nl) ]
          in
          let rec across = function
            | [] -> Ok []
            | off :: rest ->
                Result.bind (segment off) (fun ds ->
                    Result.map (fun more -> ds @ more) (across rest))
          in
          Result.map (fun rest -> ir @ rest) (across offsets)
  in
  Array.to_list
    (Array.mapi
       (fun bi b ->
         match bases.(bi) with
         | Error exn -> (b, Error exn)
         | Ok { prog; outcome } -> (
             let rec collect li acc =
               if li = nl then Ok (List.rev acc)
               else
                 match sched_results.((bi * nl) + li) with
                 | Ok s -> collect (li + 1) ((levels.(li), s) :: acc)
                 | Error exn -> Error exn
             in
             match collect 0 [] with
             | Ok scheds -> (
                 match verify_for bi with
                 | Ok verify ->
                     ( b,
                       Ok
                         {
                           benchmark = b;
                           prog;
                           profile = outcome.profile;
                           outcome;
                           scheds;
                           verify;
                         } )
                 | Error exn -> (b, Error exn))
             | Error exn -> (b, Error exn)))
       bs)

let analyze t ?(verify = `Off) b =
  match analyze_all t ~verify [ b ] with
  | [ (_, Ok a) ] -> a
  | [ (_, Error exn) ] -> raise exn
  | _ -> assert false
