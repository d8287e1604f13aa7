(* Corpus scale-out: generate a seeded mini-C corpus and stream it
   through the full analysis pipeline (frontend → profiling sim → sched
   → verify → chain detection) in bounded batches on the engine.

   The runner is the suite's answer to "12 fixed kernels is not a
   workload": it turns the pipeline loose on an arbitrarily large,
   deterministically reproducible program population, and aggregates
   exactly the signal the paper's feedback loop needs — which chainable
   sequences dominate execution time across the whole population,
   weighted by each program's dynamic-operation traffic. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Engine = Asipfb_engine.Engine
module Profile = Asipfb_exec.Profile
module Pipeline = Asipfb.Pipeline

type spec = { seed : int; count : int; size : int }

let spec ?(size = Gen.default_size) ~seed ~count () =
  if count < 0 then invalid_arg "Corpus.spec: negative count";
  { seed; count; size = max 3 size }

let benchmarks { seed; count; size } =
  List.init count (fun index -> Gen.benchmark ~seed ~size ~index ())

type outcome = {
  benchmark : Benchmark.t;
  result :
    (Pipeline.analysis * Detect.detected list, Pipeline.failure) result;
}

type summary = {
  total : int;
  ok : int;
  crashed : int;
  timeouts : int;
  quarantined : int;
  dynamic_ops : int;
  verify_findings : int;
  chains : (string * float) list;
}

let default_query = Pipeline.Query.make ~length:2 Opt_level.O1

(* Batches bounded at a small multiple of the worker count: large enough
   to keep every domain busy through both task phases, small enough that
   results stream out (and memory stays bounded) long before a
   thousand-program corpus finishes. *)
let default_batch ~engine = max 32 (8 * Engine.jobs engine)

let rec split_at n l =
  if n <= 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

let run ~engine ?verify ?(query = default_query) ?batch ?on_result bs =
  let batch =
    match batch with Some b -> max 1 b | None -> default_batch ~engine
  in
  let corpus_profile = Profile.create () in
  let chain_weight : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let ok = ref 0
  and crashed = ref 0
  and timeouts = ref 0
  and quarantined = ref 0
  and verify_findings = ref 0 in
  let consume ((b : Benchmark.t), r) =
    let result =
      match r with
      | Error (f : Pipeline.failure) ->
          (match Pipeline.classify_failure f with
          | `Timeout -> incr timeouts
          | `Quarantined -> incr quarantined
          | `Crash -> incr crashed);
          Error f
      | Ok (a : Pipeline.analysis) ->
          incr ok;
          Profile.merge_into corpus_profile a.profile;
          verify_findings := !verify_findings + List.length a.verify;
          let detections = Pipeline.detect a query in
          (* Traffic-weighted aggregation: a sequence claiming f% of a
             program's execution time contributes f% of that program's
             dynamic operations — the multi-application selection signal
             (one busy program outweighs ten near-idle ones). *)
          let weight = float_of_int a.outcome.instrs_executed /. 100.0 in
          List.iter
            (fun (d : Detect.detected) ->
              let name = Detect.display_name d in
              let w0 =
                Option.value (Hashtbl.find_opt chain_weight name)
                  ~default:0.0
              in
              Hashtbl.replace chain_weight name (w0 +. (d.freq *. weight)))
            detections;
          Ok (a, detections)
    in
    match on_result with
    | Some f -> f { benchmark = b; result }
    | None -> ()
  in
  let rec go bs =
    match bs with
    | [] -> ()
    | _ ->
        let this, rest = split_at batch bs in
        List.iter consume (Pipeline.run_results ~engine ?verify ~benchmarks:this ());
        go rest
  in
  go bs;
  let dynamic_ops = Profile.total corpus_profile in
  let chains =
    Hashtbl.fold (fun name w acc -> (name, w) :: acc) chain_weight []
    |> List.map (fun (name, w) ->
           ( name,
             if dynamic_ops = 0 then 0.0
             else 100.0 *. w /. float_of_int dynamic_ops ))
    |> List.sort (fun (na, wa) (nb, wb) ->
           match Float.compare wb wa with
           | 0 -> String.compare na nb
           | c -> c)
  in
  {
    total = List.length bs;
    ok = !ok;
    crashed = !crashed;
    timeouts = !timeouts;
    quarantined = !quarantined;
    dynamic_ops;
    verify_findings = !verify_findings;
    chains;
  }

let run_spec ~engine ?verify ?query ?batch ?on_result s =
  run ~engine ?verify ?query ?batch ?on_result (benchmarks s)

let render_summary ?(top = 10) (sp : spec) (s : summary) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "corpus seed=%d count=%d size=%d: %d ok, %d crashed, %d timeout(s), \
        %d quarantined\n"
       sp.seed sp.count sp.size s.ok s.crashed s.timeouts s.quarantined);
  Buffer.add_string buf
    (Printf.sprintf "dynamic ops %d, verify findings %d\n" s.dynamic_ops
       s.verify_findings);
  (match Asipfb_util.Listx.take top s.chains with
  | [] -> ()
  | top_chains ->
      Buffer.add_string buf
        "top chains (traffic-weighted, % of corpus dynamic ops):\n";
      List.iter
        (fun (name, pct) ->
          Buffer.add_string buf (Printf.sprintf "  %-28s %6.2f%%\n" name pct))
        top_chains);
  Buffer.contents buf
