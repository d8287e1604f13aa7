(* The benchmark's OCaml half.  [run.py] drives it; it never runs alone.

   Subcommands (each prints one JSON object on its last stdout line):

   - [host]: OCaml version and the runtime's recommended domain count.
   - [gen]: write a seeded corpus's mini-C sources (the corpus_tv set-up).
   - [serve-mix]: the untraced serve_mix workload against a child
     [asipfb serve] daemon: set-up, a closed loop of two connections for a
     fixed time, reply checks, and the daemon's peak RSS.
   - [trace]: the traced run of one workload.  It re-drives the workload
     through each layer's public functions, records a span around every
     call, and reports per-layer time, self time and counts.

   Spans live in memory and are written out at the end of a traced run.
   Nothing here reaches into [lib/]: every span sits around a public call. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Interp = Asipfb_sim.Interp
module Memory = Asipfb_exec.Memory
module Value = Asipfb_exec.Value
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Rename = Asipfb_sched.Rename
module Percolate = Asipfb_sched.Percolate
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Uarch = Asipfb_asip.Uarch
module Select = Asipfb_asip.Select
module Speedup = Asipfb_asip.Speedup
module Codegen = Asipfb_asip.Codegen
module Tsim = Asipfb_asip.Tsim
module Verify = Asipfb_verify.Verify
module Semantics = Asipfb_verify.Semantics
module Engine = Asipfb_engine.Engine
module Metrics = Asipfb_engine.Metrics
module Pipeline = Asipfb.Pipeline
module Experiments = Asipfb.Experiments
module Timing = Asipfb.Timing
module Gen = Asipfb_corpus.Gen
module Corpus = Asipfb_corpus.Corpus
module Api = Asipfb_service.Api
module Server = Asipfb_service.Server
module Client = Asipfb_service.Client
module Json = Asipfb_service.Json

let now = Unix.gettimeofday

(* Every engine, daemon and connection of the benchmark uses this many
   domains: the host has two cores. *)
let jobs = 2

(* ------------------------------------------------------------------ *)
(* Failures and output                                                 *)

let failures : string list ref = ref []
let attempted = ref 0
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt

let json_string s = Json.to_string (Json.String s)

(* Every digit a timer gives; a percentile of no samples is null. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

module Trace = struct
  type span = { id : int; name : string; parent : int; t0 : float; t1 : float }

  let on = ref false
  let spans : span list ref = ref []
  let stack : int list ref = ref []
  let next = ref 0
  let counts : (string, float) Hashtbl.t = Hashtbl.create 64

  let span name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          stack := List.tl !stack;
          spans := { id; name; parent; t0; t1 } :: !spans)
    end

  let count name v =
    if !on then
      Hashtbl.replace counts name
        (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

  let get name = Option.value ~default:0. (Hashtbl.find_opt counts name)
  let dur s = s.t1 -. s.t0

  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. dur s else acc)
      0. !spans

  (* Self time: a span's duration minus what its children cover.  The
     harness is single-threaded, so children never overlap. *)
  let self_times () =
    let children = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
      !spans;
    List.map
      (fun s ->
        (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
      !spans

  let write path =
    let oc = open_out path in
    output_string oc "{\"spans\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_char oc ',';
        Printf.fprintf oc "\n{\"id\":%d,\"name\":%s,\"parent\":%d,\"start\":%s,\"end\":%s}"
          s.id (json_string s.name) s.parent (json_float s.t0)
          (json_float s.t1))
      (List.rev !spans);
    output_string oc "\n]}\n";
    close_out oc
end

let span = Trace.span

(* ------------------------------------------------------------------ *)
(* Layer re-drive                                                      *)

let tac_instrs (p : Prog.t) =
  List.fold_left (fun n (f : Func.t) -> n + List.length f.body) 0 p.funcs

let outputs_equal eq (b : Benchmark.t) m1 m2 =
  List.for_all
    (fun r ->
      let a = Memory.dump m1 r and c = Memory.dump m2 r in
      Array.length a = Array.length c && Array.for_all2 eq a c)
    b.output_regions

let compile (b : Benchmark.t) =
  let prog = span "frontend.compile" (fun () -> Benchmark.compile b) in
  Trace.count "frontend.tac_instrs" (float (tac_instrs prog));
  prog

let simulate (b : Benchmark.t) prog =
  let out = span "sim.run" (fun () -> Interp.run ~inputs:(b.inputs ()) prog) in
  Trace.count "sim.instrs" (float out.instrs_executed);
  out

(* [Schedule.optimize ~level] is the percolation and renaming passes
   followed by compaction; calling the passes one by one puts each under
   its own span and leaves compaction as the level span's self time. *)
let optimize prog level =
  let compact p = Schedule.optimize_custom ~rename:false ~percolate:false p in
  span ("sched." ^ Opt_level.to_string level) (fun () ->
      match level with
      | Opt_level.O0 -> Schedule.optimize ~level prog
      | Opt_level.O1 ->
          let p = span "sched.percolate" (fun () -> Percolate.run prog) in
          { (compact p) with level }
      | Opt_level.O2 ->
          let p = span "sched.rename" (fun () -> Rename.run prog) in
          let p = span "sched.percolate" (fun () -> Percolate.run p) in
          { (compact p) with level })

let detect sched ~profile =
  let r =
    span "detect.run" (fun () ->
        Detect.run_report (Detect.default_config ~length:2) sched ~profile)
  in
  Trace.count "detect.calls" 1.;
  if r.completeness <> Detect.Exact then Trace.count "detect.truncated" 1.

type asip = { est : Speedup.estimate; tsim : Tsim.outcome }

let asip (b : Benchmark.t) prog sched ~profile uarch =
  let config = { Select.default_config with uarch } in
  let choices, rejected =
    span "select.choose" (fun () -> Select.choose_report config sched ~profile)
  in
  Trace.count "select.clock_rejections" (float (List.length rejected));
  let est =
    span "speedup.estimate" (fun () ->
        Speedup.estimate ~uarch ~prog choices ~profile)
  in
  let target =
    span "codegen.generate" (fun () ->
        Codegen.generate_for_choices ~choices prog)
  in
  let tsim =
    span "tsim.run" (fun () -> Tsim.run ~uarch target ~inputs:(b.inputs ()))
  in
  Trace.count "tsim.cycles" (float tsim.cycles);
  { est; tsim }

(* A Table-1 kernel through every layer the paper's loop has. *)
let kernel_chain (b : Benchmark.t) =
  let prog = compile b in
  let out = simulate b prog in
  let profile = out.profile in
  let scheds = List.map (fun l -> (l, optimize prog l)) Opt_level.all in
  ignore
    (span "sched.ablation" (fun () ->
         Schedule.optimize_custom ~rename:false ~percolate:false prog));
  List.iter (fun (_, s) -> detect s ~profile) scheds;
  List.iter
    (fun l ->
      ignore
        (span "coverage.analyze" (fun () ->
             Coverage.analyze Coverage.default_config (List.assoc l scheds)
               ~profile)))
    [ Opt_level.O0; Opt_level.O1 ];
  let o1 = List.assoc Opt_level.O1 scheds in
  let flat = asip b prog o1 ~profile Uarch.flat in
  let risc5 = asip b prog o1 ~profile Uarch.risc5 in
  (prog, out, flat, risc5)

(* A generated corpus program through the layers [corpus --verify tv]
   runs: no ASIP selection, but all three verifier families. *)
let corpus_chain (b : Benchmark.t) =
  let prog = compile b in
  let out = simulate b prog in
  let scheds = List.map (fun l -> (l, optimize prog l)) Opt_level.all in
  detect (List.assoc Opt_level.O1 scheds) ~profile:out.profile;
  let ir =
    span "verify.ir" (fun () ->
        Verify.lint_source b.source @ Verify.check_ir prog)
  in
  let legality =
    List.concat_map
      (fun (_, s) ->
        span "verify.legality" (fun () ->
            Verify.check_schedule ~original:prog s))
      scheds
  in
  let tv =
    List.concat_map
      (fun (_, s) ->
        span "verify.tv" (fun () -> Verify.check_refinement ~original:prog s))
      scheds
  in
  check (tv = []) "%s: %d refinement finding(s)" b.name (List.length tv);
  let n = List.length ir + List.length legality + List.length tv in
  Trace.count "verify.findings" (float n);
  n

(* Seconds the engine's tasks ran, summed over domains (Metrics.global). *)
let task_seconds () =
  List.fold_left
    (fun acc (s : Metrics.stage_stat) ->
      if List.mem s.stage [ "frontend"; "sim"; "sched"; "verify"; "verify-tv" ]
      then acc +. s.seconds
      else acc)
    0. (Metrics.snapshot Metrics.global)

let detect_metric_calls () =
  List.fold_left
    (fun acc (s : Metrics.stage_stat) ->
      if s.stage = "detect" then acc + s.count else acc)
    0 (Metrics.snapshot Metrics.global)

(* engine.wait_s: the call's wall time minus its tasks' time spread over
   the engine's domains — what the caller waited for beyond the work. *)
let in_engine engine f =
  let tasks0 = task_seconds () in
  let t0 = now () in
  let r = span "engine.analyze" f in
  let wall = now () -. t0 in
  Trace.count "engine.wait_s"
    (wall -. ((task_seconds () -. tasks0) /. float (Engine.jobs engine)));
  r

let count_engine engine =
  let s = Engine.stats engine in
  let hits = s.base.hits + s.sched.hits + s.verify.hits
  and disk = s.base.disk_hits + s.sched.disk_hits + s.verify.disk_hits
  and misses = s.base.misses + s.sched.misses + s.verify.misses in
  Trace.count "engine.cache_hits" (float (hits + disk));
  Trace.count "engine.cache_misses" (float misses);
  Trace.count "engine.retries" (float s.supervise.retries);
  Trace.count "engine.failures" (float s.supervise.failures)

(* ------------------------------------------------------------------ *)
(* Correctness pins over the Table-1 kernels                           *)

let kernels = Registry.all

(* Rows used as exact pins, and the checks against independent
   references: the small-step semantics for the simulator, the base
   program for the chained one. *)
let pin_rows () =
  List.concat_map
    (fun (b : Benchmark.t) ->
      let prog, out, flat, risc5 = kernel_chain b in
      let sem = Semantics.run ~inputs:(b.inputs ()) prog in
      (match sem.result with
      | Semantics.Returned _ ->
          check
            (outputs_equal Value.equal b out.memory sem.memory)
            "%s: Interp.run outputs differ from Verify.Semantics" b.name
      | Semantics.Trapped m -> fail "%s: semantics trapped: %s" b.name m
      | Semantics.Out_of_fuel -> fail "%s: semantics ran out of fuel" b.name);
      List.iter
        (fun (u, (a : asip)) ->
          check
            (outputs_equal (fun x y -> Value.close x y) b out.memory
               a.tsim.memory)
            "%s: chained %s outputs differ from the base program" b.name u)
        [ ("flat", flat); ("risc5", risc5) ];
      if b.name = "fir" then
        check
          (flat.est.baseline_cycles = 40739 && flat.est.asip_cycles = 32882)
          "fir pins: cycles %d -> %d, want 40739 -> 32882"
          flat.est.baseline_cycles flat.est.asip_cycles;
      [ ("sim.instrs." ^ b.name, out.instrs_executed);
        ("tsim.cycles.flat." ^ b.name, flat.tsim.cycles);
        ("tsim.cycles.risc5." ^ b.name, risc5.tsim.cycles) ])
    kernels

(* ------------------------------------------------------------------ *)
(* paper_suite                                                         *)

(* The artifacts of [asipfb report], in its order, with its arguments. *)
let artifacts suite =
  let uarch = Uarch.flat in
  [ ("table1", fun () -> Experiments.table1 ());
    ("figure3", fun () -> Experiments.figure_combined suite ~length:2);
    ("figure4", fun () -> Experiments.figure_combined suite ~length:4);
    ("figure_l3", fun () -> Experiments.figure_combined suite ~length:3);
    ("figure_l5", fun () -> Experiments.figure_combined suite ~length:5);
    ("table2", fun () -> Experiments.table2 suite);
    ("figure5", fun () -> Experiments.figure_per_benchmark suite ~length:2);
    ("figure6", fun () -> Experiments.figure_per_benchmark suite ~length:4);
    ("table3", fun () -> Experiments.table3 suite);
    ("ilp", fun () -> Experiments.ilp_report suite);
    ("asip", fun () -> Experiments.asip_report ~uarch suite);
    ("vliw", fun () -> Experiments.vliw_report ~uarch suite);
    ("resched", fun () -> Experiments.resched_report ~uarch suite);
    ("ablation_pipelining", fun () -> Experiments.ablation_pipelining suite);
    ("ablation_cleanup", fun () -> Experiments.ablation_cleanup suite);
    ("codegen", fun () -> Experiments.codegen_report ~uarch suite);
    ("timing", fun () -> Experiments.timing_report ~uarch suite);
    ("ablation_motion", fun () -> Experiments.ablation_motion suite);
    ("opmix", fun () -> Experiments.opmix_report suite);
    ("extra", fun () -> Experiments.extra_report suite);
    ("validation_unroll", fun () -> Experiments.validation_unroll suite) ]

let artifact_names = List.map fst (artifacts [])

let analyze_all engine bs =
  in_engine engine (fun () -> Engine.analyze_all engine bs)
  |> List.map (fun (_, r) -> match r with Ok a -> a | Error e -> raise e)

(* One pass of the paper's pipeline; returns the digest of the report
   text exactly as [asipfb report] prints it. *)
let paper_pass () =
  let detect0 = detect_metric_calls () in
  let digest =
    span "workload" (fun () ->
        let engine = Engine.create ~jobs () in
        let suite = analyze_all engine kernels in
        count_engine engine;
        List.iter (fun b -> ignore (kernel_chain b)) kernels;
        let buf = Buffer.create (1 lsl 16) in
        List.iter
          (fun (name, produce) ->
            let text = span ("experiments." ^ name) produce in
            Printf.bprintf buf "==== %s ====\n%s\n" name text)
          (artifacts suite);
        Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  Trace.count "detect.calls" (float (detect_metric_calls () - detect0));
  digest

(* ------------------------------------------------------------------ *)
(* corpus_tv                                                           *)

let corpus_query = Pipeline.Query.make ~length:2 Opt_level.O1

(* One pass of [corpus --verify tv -j 2]: the engine run, then the same
   programs re-driven layer by layer; returns the digest of the engine's
   summary as [corpus --json] prints it. *)
let corpus_pass ~seed ~count =
  let detect0 = detect_metric_calls () in
  let digest, summary, redriven =
    span "workload" (fun () ->
        let bs =
          List.init count (fun index ->
              span "corpus.gen" (fun () -> Gen.benchmark ~seed ~index ()))
        in
        let engine = Engine.create ~jobs () in
        let summary =
          in_engine engine (fun () ->
              Corpus.run ~engine ~verify:`Tv ~query:corpus_query bs)
        in
        count_engine engine;
        let redriven = List.fold_left (fun n b -> n + corpus_chain b) 0 bs in
        let line =
          Json.to_string
            (Api.corpus_summary_to_json (Corpus.spec ~seed ~count ()) summary)
        in
        (Digest.to_hex (Digest.string (line ^ "\n")), summary, redriven))
  in
  Trace.count "detect.calls" (float (detect_metric_calls () - detect0));
  check
    (summary.crashed + summary.timeouts + summary.quarantined = 0)
    "corpus: %d crashed, %d timeout(s), %d quarantined" summary.crashed
    summary.timeouts summary.quarantined;
  check (redriven = summary.verify_findings)
    "corpus: re-driven verifier found %d finding(s), the engine %d" redriven
    summary.verify_findings;
  attempted := !attempted + count;
  digest

(* Every generated program's simulated outputs against the semantics. *)
let corpus_semantics ~seed ~count =
  for index = 0 to count - 1 do
    let b = Gen.benchmark ~seed ~index () in
    let prog = Benchmark.compile b in
    let out = Interp.run prog in
    let sem = Semantics.run prog in
    check
      (sem.result <> Semantics.Out_of_fuel
      && outputs_equal Value.equal b out.memory sem.memory)
      "%s: Interp.run outputs differ from Verify.Semantics" b.name
  done

(* ------------------------------------------------------------------ *)
(* serve_mix: the request stream                                       *)

let levels = Opt_level.all

(* The working set: detect, coverage and timing (risc5) over every
   Table-1 kernel at every level. *)
let working_set =
  Array.of_list
    (List.concat_map
       (fun (b : Benchmark.t) ->
         List.concat_map
           (fun level ->
             [ Api.Detect
                 { benchmark = b.name; query = Pipeline.Query.make level };
               Api.Coverage
                 { benchmark = b.name; query = Pipeline.Query.make level };
               Api.Timing
                 { benchmark = b.name; level; uarch = "risc5"; clock = None } ])
           levels)
       kernels)

let ws_index ~bench ~level ~op = (((bench * 3) + level) * 3) + op

type kind = Hit of int | Detect_miss of int | Timing_miss

(* Request [j] of connection [c]: every tenth request asks a question
   never asked before (alternately a detect with a fresh node budget,
   which is still an exact search, and a timing report at a fresh clock
   near risc5's 1.5); the rest repeat a working-set question drawn from
   the seeded stream.  Fixed miss positions make hit and miss counts
   independent of the seed. *)
let request ~seed ~c st j =
  let nk = List.length kernels in
  if j mod 10 <> 9 then
    let i = Random.State.int st (Array.length working_set) in
    (working_set.(i), Hit i)
  else
    let f = j / 10 in
    let g = f / 2 in
    let bench = (g + (5 * c) + (abs seed mod nk)) mod nk in
    let name = (List.nth kernels bench).name in
    if f mod 2 = 0 then
      let level = g / nk mod 3 in
      let query =
        Pipeline.Query.make
          ~budget:(1_000_000 + (2 * g) + c)
          (List.nth levels level)
      in
      ( Api.Detect { benchmark = name; query },
        Detect_miss (ws_index ~bench ~level ~op:0) )
    else
      let clock = float_of_string (Printf.sprintf "1.5%06d" ((2 * g) + c + 1)) in
      ( Api.Timing
          { benchmark = name; level = Opt_level.O1; uarch = "risc5";
            clock = Some clock },
        Timing_miss )

let stream_state ~seed ~c = Random.State.make [| seed; c; 0x5e7e |]

(* A response frame is [prefix ^ payload ^ "}"]; anything else fails. *)
let frame_prefix cache =
  Printf.sprintf "{\"api\":%d,\"id\":\"\",\"ok\":true,\"cache\":\"%s\",\"result\":"
    Api.api_version cache

let payload_of ~cache line =
  let p = frame_prefix cache in
  let lp = String.length p and ll = String.length line in
  if ll > lp && String.sub line 0 lp = p && line.[ll - 1] = '}' then
    Some (String.sub line lp (ll - lp - 1))
  else None

(* What the offline CLI prints for the same question ([asipfb detect
   --json], [coverage --json], [design --json]), computed in-process
   with a sequential engine and the same encoders. *)
let offline engine req =
  let analysis name = Engine.analyze engine (Registry.find name) in
  let json =
    match req with
    | Api.Detect { benchmark; query } ->
        Api.detect_report_to_json
          (Pipeline.detect_report (analysis benchmark) query)
    | Api.Coverage { benchmark; query } ->
        Api.coverage_to_json (Pipeline.coverage (analysis benchmark) query)
    | Api.Timing { benchmark; level; uarch; clock } ->
        let u = Result.get_ok (Timing.uarch_of ?clock uarch) in
        Api.timing_report_to_json
          (Timing.of_analysis ~uarch:u (analysis benchmark) level)
    | _ -> invalid_arg "offline: not an analysis request"
  in
  Json.to_string json

(* The CLI command that answers [req] offline, when there is one. *)
let cli_argv req =
  match req with
  | Api.Detect { benchmark; query } ->
      Some
        [ "detect"; benchmark; "-O"; string_of_int (Opt_level.to_int query.level);
          "-l"; "2"; "--json" ]
  | Api.Coverage { benchmark; query } ->
      Some
        [ "coverage"; benchmark; "--level";
          string_of_int (Opt_level.to_int query.level); "--json" ]
  | Api.Timing { benchmark; level = Opt_level.O1; uarch; clock } ->
      Some
        ([ "design"; benchmark; "--uarch"; uarch; "--json" ]
        @ match clock with
          | Some c -> [ Printf.sprintf "--clock=%.17g" c ]
          | None -> [])
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn_daemon ~bin ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--socket"; socket; "--workers"; string_of_int jobs |]
      (Lazy.force devnull) (Lazy.force devnull) err
  in
  Unix.close err;
  pid

let rec connect ~socket ~deadline =
  match Client.connect ~socket with
  | Ok c -> c
  | Error e ->
      if now () > deadline then failwith e
      else begin
        Unix.sleepf 0.002;
        connect ~socket ~deadline
      end

let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let stop_daemon ~socket pid =
  (match Client.connect ~socket with
  | Ok c ->
      ignore (Client.rpc_raw c (Api.encode_request Api.Shutdown));
      Client.close c
  | Error _ -> Unix.kill pid Sys.sigterm);
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> fail "daemon did not exit cleanly"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let live_daemons : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let with_daemon ~bin ~socket ~log f =
  let pid = spawn_daemon ~bin ~socket ~log in
  live_daemons := pid :: !live_daemons;
  let r = f pid in
  stop_daemon ~socket pid;
  live_daemons := List.filter (( <> ) pid) !live_daemons;
  r

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    (* Linear interpolation between closest ranks. *)
    let r = p *. float (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_list xs = "[" ^ String.concat "," xs ^ "]"

let print_result extra =
  print_endline
    (json_obj
       (extra
       @ [ ("attempted", string_of_int !attempted);
           ("failures", json_list (List.rev_map json_string !failures)) ]))

(* ------------------------------------------------------------------ *)
(* serve_mix, untraced                                                 *)

(* Warm every working-set question on one connection (in order, so the
   engine's counters are deterministic); returns each reply's payload. *)
let warm client =
  Array.map
    (fun req ->
      incr attempted;
      match Client.rpc_raw client (Api.encode_request req) with
      | Ok line -> (
          match payload_of ~cache:"miss" line with
          | Some p -> p
          | None ->
              fail "warm-up %s: unexpected reply %s" (Api.request_op req) line;
              "")
      | Error e ->
          fail "warm-up: %s" e;
          "")
    working_set

type sample = { kind : kind; ms : float; at : float }

let serve_mix ~bin ~seed ~seconds ~setups ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let log = Filename.concat dir "serve.log" in
  let setup_times = ref [] in
  let expected = ref [||] in
  for _ = 1 to setups - 1 do
    let t0 = now () in
    with_daemon ~bin ~socket ~log (fun _ ->
        let c = connect ~socket ~deadline:(now () +. 30.) in
        expected := warm c;
        setup_times := (now () -. t0) :: !setup_times;
        Client.close c)
  done;
  let t0 = now () in
  let result =
    with_daemon ~bin ~socket ~log (fun pid ->
        let c = connect ~socket ~deadline:(now () +. 30.) in
        let warmed = warm c in
        setup_times := (now () -. t0) :: !setup_times;
        Client.close c;
        check (!expected = [||] || warmed = !expected)
          "warm-up replies differ between daemon starts";
        let start = now () in
        let deadline = start +. seconds in
        let conn ci () =
          let cl = connect ~socket ~deadline:(now () +. 30.) in
          let st = stream_state ~seed ~c:ci in
          let samples = ref [] and errs = ref [] and timing = ref [] in
          let j = ref 0 in
          (* A dead daemon fails every request at once; stop early. *)
          while now () < deadline && List.compare_length_with !errs 20 < 0 do
            let req, kind = request ~seed ~c:ci st !j in
            let line = Api.encode_request req in
            let t = now () in
            let reply = Client.rpc_raw cl line in
            let t' = now () in
            samples := { kind; ms = (t' -. t) *. 1000.; at = t' -. start } :: !samples;
            (match (kind, reply) with
            | Hit i, Ok r ->
                if payload_of ~cache:"hit" r <> Some warmed.(i) then
                  errs := Printf.sprintf "hit %d: reply differs" !j :: !errs
            | Detect_miss i, Ok r ->
                if payload_of ~cache:"miss" r <> Some warmed.(i) then
                  errs := Printf.sprintf "detect miss %d: reply differs" !j :: !errs
            | Timing_miss, Ok r -> (
                match payload_of ~cache:"miss" r with
                | Some p -> if List.length !timing < 6 then timing := (req, p) :: !timing
                | None -> errs := Printf.sprintf "timing miss %d: %s" !j r :: !errs)
            | _, Error e -> errs := e :: !errs);
            incr j
          done;
          Client.close cl;
          (List.rev !samples, List.rev !errs, List.rev !timing)
        in
        let d = Domain.spawn (conn 1) in
        let s0 = conn 0 () in
        let s1 = Domain.join d in
        let rss_kb = vm_hwm_kb pid in
        (s0, s1, rss_kb, warmed))
  in
  let (s0, e0, t0l), (s1, e1, t1l), rss_kb, warmed = result in
  List.iter (fun e -> fail "%s" e) (e0 @ e1);
  let samples = s0 @ s1 in
  attempted := !attempted + List.length samples;
  (* Offline answers for the working set and the sampled fresh timing
     questions, after the timed loop so they do not disturb it. *)
  let engine = Engine.create ~jobs:1 () in
  Array.iteri
    (fun i req ->
      check (offline engine req = warmed.(i))
        "working set %s #%d: daemon reply differs from the offline answer"
        (Api.request_op req) i)
    working_set;
  let timing = t0l @ t1l in
  List.iter
    (fun (req, p) ->
      check (offline engine req = p)
        "fresh timing: daemon reply differs from the offline answer")
    timing;
  let ms pred = List.filter_map (fun s -> if pred s.kind then Some s.ms else None) samples in
  let hits = ms (function Hit _ -> true | _ -> false) in
  (* One-second windows, reported as the median over windows: a burst of
     load from elsewhere on the host moves one window, not the result. *)
  let windows =
    List.init (max 1 (int_of_float seconds)) (fun w ->
        let inw = List.filter (fun s -> int_of_float s.at = w) samples in
        let h =
          List.filter_map
            (fun s -> match s.kind with Hit _ -> Some s.ms | _ -> None)
            inw
        in
        (float (List.length inw), percentile h 0.5, percentile h 0.9))
  in
  let over_windows f =
    median (List.filter (fun v -> not (Float.is_nan v)) (List.map f windows))
  in
  let cli =
    List.filter_map
      (fun (req, p) ->
        Option.map (fun argv -> json_list [ json_list (List.map json_string argv); json_string p ])
          (cli_argv req))
      (List.mapi (fun i r -> (r, warmed.(i))) (Array.to_list working_set) @ timing)
  in
  print_result
    [ ("setup_s", json_float (median !setup_times));
      ("latency_p50_ms", json_float (over_windows (fun (_, p50, _) -> p50)));
      ("latency_p90_ms", json_float (over_windows (fun (_, _, p90) -> p90)));
      ("throughput_per_s", json_float (over_windows (fun (n, _, _) -> n)));
      ("peak_rss_mb", json_float (float rss_kb /. 1024.));
      ("hit_samples", string_of_int (List.length hits));
      ("detect_miss_p50_ms",
        json_float (median (ms (function Detect_miss _ -> true | _ -> false))));
      ("timing_miss_p50_ms",
        json_float (median (ms (function Timing_miss -> true | _ -> false))));
      ("requests", string_of_int (List.length samples));
      ("cli_checks", json_list cli) ]

(* ------------------------------------------------------------------ *)
(* serve_mix, traced                                                   *)

(* The traced replay: the same stream, both connections' requests
   interleaved on one connection so counters are deterministic, each
   request answered by the daemon over the socket and by an in-process
   server, whose replies must be byte-identical. *)
let replay_requests = 1200

let serve_pass ~bin ~seed ~dir =
  let socket = Filename.concat dir "trace.sock" in
  let log = Filename.concat dir "serve.log" in
  let rtts = Hashtbl.create 3 in
  let record k ms =
    if !Trace.on then
      Hashtbl.replace rtts k (ms :: Option.value ~default:[] (Hashtbl.find_opt rtts k))
  in
  let detect0 = detect_metric_calls () in
  with_daemon ~bin ~socket ~log (fun _ ->
      let c = connect ~socket ~deadline:(now () +. 30.) in
      span "workload" (fun () ->
          let engine = Engine.create ~jobs () in
          let srv = Server.create ~engine () in
          let ask cls req =
            let line = Api.encode_request req in
            ignore (span "service.decode" (fun () -> Api.decode_request line));
            let local = span "service.handle" (fun () -> Server.handle_line srv line) in
            let t = now () in
            let remote = span "service.rpc" (fun () -> Client.rpc_raw c line) in
            record cls ((now () -. t) *. 1000.);
            incr attempted;
            check (remote = Ok local) "daemon and in-process replies differ for %s"
              (Api.request_op req);
            let cache =
              match Result.map Api.decode_response remote with
              | Ok (Ok r) when Result.is_ok r.body -> Api.cache_status_to_string r.cache
              | _ -> "error"
            in
            Trace.count
              (match cache with
              | "hit" -> "service.hits"
              | "miss" -> "service.misses"
              | "join" -> "service.joins"
              | _ -> "service.errors")
              1.;
            local
          in
          let warmed = Array.map (ask "warm") working_set in
          let st = [| stream_state ~seed ~c:0; stream_state ~seed ~c:1 |] in
          for k = 0 to replay_requests - 1 do
            let ci = k mod 2 in
            let req, kind = request ~seed ~c:ci st.(ci) (k / 2) in
            let cls =
              match kind with Hit _ -> "hit" | Detect_miss _ -> "detect" | Timing_miss -> "timing"
            in
            let line = ask cls req in
            match kind with
            | Hit i | Detect_miss i ->
                check
                  (payload_of ~cache:(if cls = "hit" then "hit" else "miss") line
                  = payload_of ~cache:"miss" warmed.(i))
                  "replayed %s differs from its warm-up reply" cls
            | Timing_miss -> ()
          done;
          count_engine engine;
          warmed))
  |> fun warmed ->
  Trace.count "detect.calls" (float (detect_metric_calls () - detect0));
  (warmed, fun k -> Option.value ~default:[] (Hashtbl.find_opt rtts k))

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let layers =
  [ "harness"; "frontend"; "sim"; "sched"; "chain"; "asip"; "verify";
    "engine"; "corpus"; "experiments"; "service" ]

let layer_of name =
  match String.split_on_char '.' name with
  | "workload" :: _ -> "harness"
  | ("detect" | "coverage") :: _ -> "chain"
  | ("select" | "speedup" | "codegen" | "tsim") :: _ -> "asip"
  | l :: _ -> l
  | [] -> "harness"

let timed_spans =
  [ "frontend.compile"; "sim.run"; "sched.O0"; "sched.O1"; "sched.O2";
    "sched.rename"; "sched.percolate"; "sched.ablation"; "detect.run";
    "coverage.analyze"; "select.choose"; "speedup.estimate";
    "codegen.generate"; "tsim.run"; "verify.ir"; "verify.legality";
    "verify.tv"; "engine.analyze"; "corpus.gen"; "service.decode";
    "service.handle" ]

let counters =
  [ "frontend.tac_instrs"; "sim.instrs"; "detect.calls"; "detect.truncated";
    "select.clock_rejections"; "tsim.cycles"; "verify.findings";
    "engine.cache_hits"; "engine.cache_misses"; "engine.retries";
    "engine.failures"; "service.hits"; "service.misses"; "service.joins";
    "service.errors" ]

let trace ~workload ~bin ~seed ~corpus_seed ~count ~dir =
  let rows = pin_rows () in
  let pass () =
    match workload with
    | "paper_suite" -> `Digest (paper_pass ())
    | "corpus_tv" -> `Digest (corpus_pass ~seed:corpus_seed ~count)
    | "serve_mix" -> `Serve (serve_pass ~bin ~seed ~dir)
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* The first untraced pass warms the process; the overhead compares the
     traced pass with the untraced pass that follows it. *)
  let warmup, _ = timed pass in
  Trace.on := true;
  let traced, traced_s = timed pass in
  Trace.on := false;
  let untraced, untraced_s = timed pass in
  let rtt = ref (fun _ -> []) in
  let extra =
    match (warmup, traced, untraced) with
    | `Digest d0, `Digest d1, `Digest d2 ->
        check (d0 = d1 && d1 = d2) "digest differs between passes";
        [ ("digest", json_string d1) ]
    | `Serve _, `Serve (warmed, rtts), `Serve _ ->
        rtt := rtts;
        let engine = Engine.create ~jobs:1 () in
        Array.iteri
          (fun i req ->
            check
              (Some (offline engine req) = payload_of ~cache:"miss" warmed.(i))
              "working set #%d: reply differs from the offline answer" i)
          working_set;
        []
    | _ -> assert false
  in
  let rtt_p50 k = match !rtt k with [] -> 0. | xs -> median xs in
  if workload = "corpus_tv" then corpus_semantics ~seed:corpus_seed ~count;
  Trace.write (Filename.concat dir ("spans-" ^ workload ^ ".json"));
  let root = Trace.total "workload" in
  let selfs = Trace.self_times () in
  let self_of l =
    List.fold_left
      (fun acc ((s : Trace.span), t) -> if layer_of s.name = l then acc +. t else acc)
      0. selfs
  in
  let sched_self =
    List.fold_left
      (fun acc ((s : Trace.span), t) ->
        if List.mem s.name [ "sched.O0"; "sched.O1"; "sched.O2" ] then acc +. t else acc)
      0. selfs
  in
  let experiments =
    List.map
      (fun a -> ("experiments." ^ a ^ "_s", Trace.total ("experiments." ^ a)))
      artifact_names
  in
  let rpc = Trace.total "service.rpc" and handle = Trace.total "service.handle" in
  let metrics =
    List.map (fun n -> (n ^ "_s", Trace.total n, "s")) timed_spans
    @ List.map (fun n -> (n, Trace.get n, "count")) counters
    @ [ ("sim.instrs_per_s",
         (if Trace.total "sim.run" > 0. then Trace.get "sim.instrs" /. Trace.total "sim.run"
          else 0.), "1/s");
        ("sched.compact_s", sched_self, "s");
        ("engine.wait_s", Trace.get "engine.wait_s", "s");
        ("service.transport_s", (if rpc > 0. then rpc -. handle else 0.), "s");
        ("trace.overhead_s", traced_s -. untraced_s, "s");
        ("service.hit_rtt_p50_ms", rtt_p50 "hit", "ms");
        ("service.detect_miss_rtt_p50_ms", rtt_p50 "detect", "ms");
        ("service.timing_miss_rtt_p50_ms", rtt_p50 "timing", "ms") ]
    @ List.map (fun (n, v) -> (n, v, "s")) experiments
    @ List.concat_map
        (fun l ->
          let s = self_of l in
          [ ("self." ^ l ^ "_s", s, "s");
            ("share." ^ l, (if root > 0. then s /. root else 0.), "ratio") ])
        layers
    @ List.map (fun (n, v) -> (n, float v, "count")) rows
  in
  let metrics =
    List.map
      (fun (n, v, u) -> (n, json_obj [ ("value", json_float v); ("unit", json_string u) ]))
      metrics
  in
  print_result
    (extra
    @ [ ("untraced_s", json_float untraced_s); ("traced_s", json_float traced_s);
        ("metrics", json_obj metrics) ])

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name =
    match opt name args with
    | Some v -> v
    | None -> failwith ("missing " ^ name)
  in
  let int name = int_of_string (get name) in
  match args with
  | _ :: "host" :: _ ->
      print_endline
        (json_obj
           [ ("ocaml", json_string Sys.ocaml_version);
             ("recommended_domains", string_of_int (Domain.recommended_domain_count ())) ])
  | _ :: "gen" :: _ ->
      let seed = int "--seed" and count = int "--count" in
      let oc = open_out_bin (get "--out") in
      let h = Buffer.create (1 lsl 16) in
      for index = 0 to count - 1 do
        let src = Gen.source ~seed ~index () in
        Printf.bprintf h "// %s\n%s" (Gen.name ~seed ~index) src
      done;
      Buffer.output_buffer oc h;
      close_out oc;
      print_endline
        (json_obj [ ("sources_md5", json_string (Digest.to_hex (Digest.string (Buffer.contents h)))) ])
  | _ :: "serve-mix" :: _ ->
      serve_mix ~bin:(get "--asipfb") ~seed:(int "--seed")
        ~seconds:(float_of_string (get "--seconds"))
        ~setups:(int "--setups") ~dir:(get "--dir")
  | _ :: "trace" :: _ ->
      trace ~workload:(get "--workload") ~bin:(get "--asipfb") ~seed:(int "--seed")
        ~corpus_seed:(int "--corpus-seed") ~count:(int "--count") ~dir:(get "--dir")
  | _ ->
      prerr_endline "usage: probe (host|gen|serve-mix|trace) [options]";
      exit 2
