module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Diag = Asipfb_diag.Diag
module Fault = Asipfb_exec.Fault
module Supervise = Asipfb_supervise.Supervise
module Chaos = Asipfb_supervise.Chaos
module Memo = Asipfb_util.Memo

type analysis = {
  benchmark : Benchmark.t;
  prog : Asipfb_ir.Prog.t;
  profile : Asipfb_exec.Profile.t;
  outcome : Asipfb_sim.Interp.outcome;
  scheds : (Opt_level.t * Schedule.t) list;
  verify : Diag.t list;
}

type verify_mode = Asipfb_verify.Verify.mode

(* The cached unit of a base task.  The benchmark itself is excluded
   (its input generator is a closure, which Marshal rejects); it is
   reattached from the caller's handle when the analysis is assembled. *)
type base = { prog : Asipfb_ir.Prog.t; outcome : Asipfb_sim.Interp.outcome }

type 'a cell = ('a, exn * Printexc.raw_backtrace) result

(* One result kind: its values in memory, over its payload cache on
   disk. *)
type 'a kind = { memo : (string, 'a) Memo.t; cache : 'a Cache.t }

type t = {
  jobs : int;
  uarch : string;
  sup : Supervise.t;
  base : base kind;
  faulted : base kind;
      (* Fault-injected base runs: uncached, since their outcome depends
         on the injection config, and never in a clean run's flight. *)
  sched : Schedule.t kind;
  verify : Diag.t list kind;
  new_kind : 'a. string -> 'a kind;
      (* A further kind under the engine's settings (retention,
         directory, chaos, corruption events), labelled for its
         diagnostics. *)
}

type cache_stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  io_errors : int;
}

type stats = {
  base : cache_stats;
  sched : cache_stats;
  verify : cache_stats;
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

(* With the cache on, a kind keeps every value it computes; without it
   (and for fault-injected runs) only overlapping asks share one. *)
let create ?jobs ?cache_dir ?(cache = true) ?policy ?chaos
    ?(uarch = "flat") () =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let sup = Supervise.create ?policy ?chaos () in
  let mk label =
    {
      memo = Memo.create ?capacity:(if cache then None else Some 0) ();
      cache =
        Cache.create ?dir:cache_dir ~enabled:cache ?chaos:(Supervise.chaos sup)
          ~on_event:(fun ev ->
            Supervise.note_degraded sup (cache_diag label ev))
          ();
    }
  in
  {
    jobs;
    uarch;
    sup;
    base = mk "base";
    faulted =
      {
        memo = Memo.create ~capacity:0 ();
        cache = Cache.create ~enabled:false ();
      };
    sched = mk "sched";
    verify = mk "verify";
    new_kind = mk;
  }

let sequential () =
  create ~jobs:1 ~cache:false ~policy:Supervise.Policy.off ()

let jobs t = t.jobs
let uarch t = t.uarch
let supervisor t = t.sup
let joined (t : t) =
  let n k = (Memo.stats k.memo).joined in
  n t.base + n t.faulted + n t.sched + n t.verify

let kind_stats k =
  let c = Cache.stats k.cache in
  {
    hits = (Memo.stats k.memo).hits;
    disk_hits = c.disk_hits;
    misses = c.misses;
    stores = c.stores;
    corrupt = c.corrupt;
    io_errors = c.io_errors;
  }

let stats (t : t) =
  {
    base = kind_stats t.base;
    sched = kind_stats t.sched;
    verify = kind_stats t.verify;
    supervise = Supervise.stats t.sup;
  }

let reset_kind k =
  Memo.reset_stats k.memo;
  Cache.reset_stats k.cache

let reset_stats (t : t) =
  reset_kind t.base;
  reset_kind t.sched;
  reset_kind t.verify

(* --- keyed tasks ------------------------------------------------------------

   Every computation of the engine is a keyed task: kept in its kind's
   memo and cache under its content key, computed once across
   overlapping callers, and run under the supervisor.  Only the leader of
   a key runs the supervised body; a hit or a join returns its value
   before [Supervise.run].  Base, sched and verify tasks run in their
   benchmark's supervision group; results derived from an analysis (a
   transformed program, an ASIP product, a detection query) run alone. *)

let kind t label = t.new_kind label

(* A failure leaves the memo as a raise, so it is never kept. *)
let run_task t k ?group ~key ~name f =
  match
    Memo.find_or_run k.memo ~key (fun () ->
        let trace = ref None in
        let body ctx =
          try Cache.find_or_compute k.cache ~key (fun () -> f ctx)
          with exn ->
            trace := Some (Printexc.get_raw_backtrace ());
            raise exn
        in
        match Supervise.run t.sup ?group ~name body with
        | Ok v -> v
        | Error exn ->
            Printexc.raise_with_backtrace exn
              (Option.value !trace ~default:(Printexc.get_callstack 0)))
  with
  | v, _ -> Ok v
  | exception exn -> Error (exn, Printexc.get_raw_backtrace ())

let value = function
  | Ok v -> v
  | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt

let derive_faults (config : Fault.config) (b : Benchmark.t) =
  Fault.create { config with seed = config.seed lxor Hashtbl.hash b.name }

let compute_base t ?faults (ctx : Supervise.ctx) (b : Benchmark.t) =
  let prog =
    Metrics.timed Metrics.global "frontend" (fun () -> Benchmark.compile b)
  in
  let injector = Option.map (fun c -> derive_faults c b) faults in
  (* The chaos "exec-core" seam: a simulated core crash exercises the
     degradation ladder onto the reference semantics; keyed per attempt so
     a retry can succeed. *)
  let inject_core_crash =
    match Supervise.chaos t.sup with
    | Some c ->
        Chaos.core_crash c ~key:(Printf.sprintf "%s#%d" b.name ctx.attempt)
    | None -> false
  in
  let outcome, degrade_diags =
    Metrics.timed Metrics.global "sim" (fun () ->
        Fallback.run prog ~inputs:(b.inputs ()) ?faults:injector
          ?fresh_faults:(Option.map (fun c () -> derive_faults c b) faults)
          ?watchdog:ctx.watchdog ~inject_core_crash ~benchmark:b.name)
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

(* The schedule checks of a verify mode: (metrics stage, also the task
   and key label; content key; checker). *)
let schedule_families verify =
  let sched =
    ("verify-sched", verify_sched_key, Asipfb_verify.Verify.check_schedule)
  and tv =
    ("verify-tv", verify_tv_key, Asipfb_verify.Verify.check_refinement)
  in
  match verify with `Off | `Ir -> [] | `Full -> [ sched ] | `Tv -> [ sched; tv ]

let ( let* ) = Result.bind

(* The first failure of a list of cells, in list order. *)
let all cells =
  List.fold_right
    (fun c acc ->
      let* v = c in
      let* vs = acc in
      Ok (v :: vs))
    cells (Ok [])

(* One store per call: a task pulls its inputs through it before its own
   supervised body runs (sched pulls base; every verify task pulls its
   sched), and a failed input is the task's result without running it.
   A node's store key is its benchmark's position in the list (and its
   level and check), so each entry is its own node and its content key,
   a digest of the source, is computed only by the task that runs it. *)
let analyze_all t ?(verify = `Off) ?faults benchmarks =
  let bs = Array.of_list benchmarks in
  let bases = Memo.create () and scheds = Memo.create () in
  let irs = Memo.create () and checks = Memo.create () in
  let uarch = t.uarch in
  let level_name (b : Benchmark.t) label level =
    Printf.sprintf "%s:%s@%s" label b.name (Opt_level.to_string level)
  in
  let base_of i =
    let b = bs.(i) in
    Memo.get bases ~key:i (fun () ->
        let key = source_key ~uarch b and name = "base:" ^ b.name in
        match faults with
        | None ->
            run_task t t.base ~group:b.name ~key ~name (fun ctx ->
                compute_base t ctx b)
        | Some config ->
            run_task t t.faulted ~group:b.name
              ~key:(content_key [ key; Marshal.to_string config [] ])
              ~name
              (fun ctx -> compute_base t ~faults:config ctx b))
  in
  let sched_of i level =
    let b = bs.(i) in
    Memo.get scheds ~key:(i, level) (fun () ->
        let* base = base_of i in
        run_task t t.sched ~group:b.name ~key:(sched_key ~uarch b level)
          ~name:(level_name b "sched" level)
          (fun _ ->
            Metrics.timed Metrics.global "sched" (fun () ->
                Schedule.optimize ~level base.prog)))
  in
  (* Findings depend only on the source (IR checks) or on (source,
     level) (schedule checks); each family has its own metrics stage,
     named like its cache key family, so --timings shows where
     verification time goes. *)
  let ir_of i =
    let b = bs.(i) in
    Memo.get irs ~key:i (fun () ->
        let* base = base_of i in
        run_task t t.verify ~group:b.name ~key:(verify_ir_key ~uarch b)
          ~name:("verify-ir:" ^ b.name)
          (fun _ ->
            Metrics.timed Metrics.global "verify-ir" (fun () ->
                Asipfb_verify.Verify.lint_source b.source
                @ Asipfb_verify.Verify.check_ir base.prog)))
  in
  let checked_of (stage, key_of, check) i level =
    let b = bs.(i) in
    Memo.get checks ~key:(stage, i, level) (fun () ->
        let* base = base_of i in
        let* sched = sched_of i level in
        run_task t t.verify ~group:b.name
          ~key:(key_of ?uarch:(Some uarch) b level)
          ~name:(level_name b stage level)
          (fun _ ->
            Metrics.timed Metrics.global stage (fun () ->
                check ~original:base.prog sched)))
  in
  let levels = Opt_level.all in
  let families = schedule_families verify in
  let n = Array.length bs in
  let each f = List.init n (fun i () -> ignore (f i)) in
  let per_level f =
    List.concat
      (List.init n (fun i -> List.map (fun l () -> ignore (f i l)) levels))
  in
  let tasks =
    [ each base_of; per_level sched_of ]
    @ (if verify = `Off then [] else [ each ir_of ])
    @ List.map (fun f -> per_level (checked_of f)) families
  in
  (* Every node hangs off its benchmark's base, so a call starts with
     [n] runnable tasks: a domain beyond [n] would start by waiting, and
     a one-benchmark call (each daemon request) spawns none. *)
  ignore
    (Pool.run ~jobs:(min t.jobs n)
       ~on_spawn_failure:(fun exn ->
         Supervise.note_degraded t.sup
           (Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
              ~context:[ ("kind", "pool-degraded") ]
              ("domain spawn failed; continuing with fewer workers: "
              ^ Printexc.to_string exn)))
       (Array.of_list (List.concat tasks)));
  (* Every cell is settled; assemble each benchmark with the failure
     precedence base, scheds, IR findings, then each schedule family,
     each in level order. *)
  List.mapi
    (fun i (b : Benchmark.t) ->
      let analysis =
        let* { prog; outcome } = base_of i in
        let* scheds =
          all
            (List.map
               (fun l -> Result.map (fun s -> (l, s)) (sched_of i l))
               levels)
        in
        let* verify =
          if verify = `Off then Ok []
          else
            let* ir = ir_of i in
            let* checked =
              all
                (List.concat_map
                   (fun f -> List.map (checked_of f i) levels)
                   families)
            in
            Ok (List.concat (ir :: checked))
        in
        Ok
          { benchmark = b; prog; profile = outcome.profile; outcome; scheds;
            verify }
      in
      (b, Result.map_error fst analysis))
    benchmarks

let analyze t ?(verify = `Off) b =
  match analyze_all t ~verify [ b ] with
  | [ (_, Ok a) ] -> a
  | [ (_, Error exn) ] -> raise exn
  | _ -> assert false
