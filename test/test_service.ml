(* The analysis service: wire-protocol codecs (QCheck round-trips on
   every encoder/decoder), parser totality (malformed frames, depth
   bombs), daemon error paths (structured responses, never a crash),
   in-flight dedup across concurrent clients, and a socket-level
   end-to-end cycle. *)

module Json = Asipfb_service.Json
module Api = Asipfb_service.Api
module Server = Asipfb_service.Server
module Client = Asipfb_service.Client
module Pipeline = Asipfb.Pipeline
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Diag = Asipfb_diag.Diag
module Timing = Asipfb.Timing
module Engine = Asipfb_engine.Engine
module Supervise = Asipfb_supervise.Supervise
module Pool = Asipfb_engine.Pool

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* --- generators ---------------------------------------------------------- *)

(* Multiples of 1/8 are exact in binary and short in decimal, so the
   printer's %.12g rendering round-trips them exactly — the codec
   property under test is structure, not float printing. *)
let nice_float = QCheck.Gen.map (fun n -> float_of_int n /. 8.0)
    (QCheck.Gen.int_range (-80000) 80000)

let pos_float = QCheck.Gen.map Float.abs nice_float
let small_str = QCheck.Gen.(string_size ~gen:printable (int_range 0 12))

let query_gen =
  let open QCheck.Gen in
  map2
    (fun (level, length) (min_freq, budget) ->
      { Pipeline.Query.level; length; min_freq; budget })
    (pair (oneofl [ Opt_level.O0; Opt_level.O1; Opt_level.O2 ])
       (int_range 2 5))
    (pair (option pos_float) (option (int_range 0 100000)))

let diag_gen =
  let open QCheck.Gen in
  let severity = oneofl [ Diag.Info; Diag.Warning; Diag.Error ] in
  let stage =
    oneofl
      [ Diag.Frontend; Diag.Simulation; Diag.Scheduling; Diag.Detection;
        Diag.Coverage; Diag.Verification; Diag.Selection; Diag.Reporting;
        Diag.Driver ]
  in
  let pos =
    option
      (map2 (fun line col -> { Diag.line; col }) (int_range 0 9999)
         (int_range 0 999))
  in
  map2
    (fun ((severity, stage), (file, pos)) (message, context) ->
      { Diag.severity; stage; file; pos; message; context })
    (pair (pair severity stage) (pair (option small_str) pos))
    (pair small_str (list_size (int_range 0 3) (pair small_str small_str)))

let classes_gen =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (oneofl [ "add"; "subtract"; "fload"; "fmultiply"; "compare"; "shift" ]))

let occurrence_gen =
  let open QCheck.Gen in
  map2
    (fun opids count -> { Detect.opids; count })
    (list_size (int_range 1 3) (pair small_nat small_nat))
    small_nat

let detected_gen =
  let open QCheck.Gen in
  map3
    (fun classes freq occurrences -> { Detect.classes; freq; occurrences })
    classes_gen pos_float
    (list_size (int_range 0 3) occurrence_gen)

let completeness_gen =
  QCheck.Gen.oneofl [ Detect.Exact; Detect.Budget_truncated ]

let detect_report_gen =
  let open QCheck.Gen in
  map2
    (fun detections completeness -> { Detect.detections; completeness })
    (list_size (int_range 0 4) detected_gen)
    completeness_gen

let coverage_gen =
  let open QCheck.Gen in
  map3
    (fun picks coverage completeness ->
      { Coverage.picks; coverage; completeness })
    (list_size (int_range 0 4)
       (map2
          (fun pick_classes pick_freq -> { Coverage.pick_classes; pick_freq })
          classes_gen pos_float))
    pos_float completeness_gen

let cache_stats_gen =
  let open QCheck.Gen in
  map2
    (fun (hits, disk_hits, misses) (stores, corrupt, io_errors) ->
      { Engine.hits; disk_hits; misses; stores; corrupt; io_errors })
    (triple small_nat small_nat small_nat)
    (triple small_nat small_nat small_nat)

let supervise_stats_gen =
  let open QCheck.Gen in
  map2
    (fun (tasks, attempts, retries) ((failures, timeouts), (quarantined, degraded)) ->
      { Supervise.tasks; attempts; retries; failures; timeouts; quarantined;
        degraded })
    (triple small_nat small_nat small_nat)
    (pair (pair small_nat small_nat) (pair small_nat small_nat))

let engine_stats_gen =
  let open QCheck.Gen in
  map2
    (fun (base, sched) (verify, supervise) ->
      { Engine.base; sched; verify; supervise })
    (pair cache_stats_gen cache_stats_gen)
    (pair cache_stats_gen supervise_stats_gen)

let level_gen = QCheck.Gen.oneofl [ Opt_level.O0; Opt_level.O1; Opt_level.O2 ]

let chain_report_gen =
  let open QCheck.Gen in
  map3
    (fun (cr_mnemonic, cr_classes) (cr_delay, cr_slack)
         (cr_cycles, cr_latency_sum) ->
      { Timing.cr_mnemonic; cr_classes; cr_delay; cr_slack; cr_cycles;
        cr_latency_sum })
    (pair small_str classes_gen)
    (pair pos_float nice_float)
    (pair small_nat small_nat)

let timing_report_gen =
  let open QCheck.Gen in
  map3
    (fun ((t_benchmark, t_level), (t_uarch, t_clock))
         ((t_baseline_cycles, t_asip_cycles),
          (t_estimated_speedup, t_measured_cycles))
         ((t_measured_speedup, t_total_area), (t_chains, t_rejected)) ->
      { Timing.t_benchmark; t_level; t_uarch; t_clock; t_baseline_cycles;
        t_asip_cycles; t_estimated_speedup; t_measured_cycles;
        t_measured_speedup; t_total_area; t_chains; t_rejected })
    (pair (pair small_str level_gen) (pair small_str pos_float))
    (pair (pair small_nat small_nat) (pair pos_float small_nat))
    (pair (pair pos_float pos_float)
       (pair
          (list_size (int_range 0 3) chain_report_gen)
          (list_size (int_range 0 2) diag_gen)))

let stats_payload_gen =
  let open QCheck.Gen in
  map2
    (fun engine ((requests, errors), (memo_hits, coalesced), uptime_s) ->
      { Api.engine;
        service = { Api.requests; errors; memo_hits; coalesced; uptime_s } })
    engine_stats_gen
    (triple (pair small_nat small_nat) (pair small_nat small_nat) pos_float)

let request_gen =
  let open QCheck.Gen in
  let bench = oneofl [ "fir"; "iir"; "pse"; "intfft"; "nosuch" ] in
  oneof
    [
      return Api.Ping;
      return Api.Stats;
      return Api.Shutdown;
      map2
        (fun benchmark query -> Api.Detect { benchmark; query })
        bench query_gen;
      map2
        (fun benchmark query -> Api.Coverage { benchmark; query })
        bench query_gen;
      map2
        (fun benchmark mode -> Api.Verify { benchmark; mode })
        bench
        (oneofl [ `Ir; `Full; `Tv ]);
      map (fun benchmark -> Api.Lint { benchmark }) (option bench);
      map3
        (fun seed index size -> Api.Corpus_sample { seed; index; size })
        small_nat small_nat
        (option (int_range 3 40));
      map3
        (fun (benchmark, level) uarch clock ->
          Api.Timing { benchmark; level; uarch; clock })
        (pair bench level_gen)
        (oneofl [ "flat"; "risc5"; "nosuch" ])
        (option pos_float);
      map3
        (fun (benchmark, level) (uarch, clock) area ->
          Api.Timing_area { benchmark; level; uarch; clock; area })
        (pair bench level_gen)
        (pair (oneofl [ "flat"; "risc5" ]) (option pos_float))
        pos_float;
    ]

let equiv_verdict_gen =
  let open QCheck.Gen in
  map3
    (fun ev_benchmark (ev_levels, ev_refinement_failures, ev_counterexamples)
         ev_findings ->
      { Api.ev_benchmark; ev_levels; ev_refinement_failures;
        ev_counterexamples; ev_findings })
    small_str
    (triple (int_range 1 3) small_nat small_nat)
    (list_size (int_range 0 3) diag_gen)

let payload_gen =
  let open QCheck.Gen in
  oneof
    [
      return Api.Pong;
      return Api.Stopping;
      map (fun r -> Api.Detect_result r) detect_report_gen;
      map (fun r -> Api.Coverage_result r) coverage_gen;
      map (fun ds -> Api.Findings ds) (list_size (int_range 0 3) diag_gen);
      map (fun s -> Api.Stats_result s) stats_payload_gen;
      map (fun v -> Api.Tv_result v) equiv_verdict_gen;
      map3
        (fun (seed, index) size (name, source) ->
          Api.Sample { seed; index; size; name; source })
        (pair small_nat small_nat)
        (int_range 3 40)
        (pair small_str small_str);
      map (fun r -> Api.Timing_result r) timing_report_gen;
    ]

let response_gen =
  let open QCheck.Gen in
  map3
    (fun id cache body -> { Api.id; cache; body })
    small_str
    (oneofl [ Api.Hit; Api.Join; Api.Miss; Api.Uncached ])
    (oneof
       [ map Result.ok payload_gen; map Result.error diag_gen ])

(* --- round-trip properties ------------------------------------------------ *)

let roundtrip name gen encode decode eq print =
  QCheck.Test.make ~count:200 ~name
    (QCheck.make ~print gen)
    (fun v ->
      match decode (encode v) with
      | Ok v' -> eq v v'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_query_roundtrip =
  roundtrip "query json round-trip" query_gen Api.query_to_json
    Api.query_of_json ( = )
    (fun q -> Json.to_string (Api.query_to_json q))

let prop_diag_roundtrip =
  roundtrip "diag json round-trip" diag_gen Api.diag_to_json Api.diag_of_json
    ( = ) Diag.to_string

let prop_detect_roundtrip =
  roundtrip "detect-report json round-trip" detect_report_gen
    Api.detect_report_to_json Api.detect_report_of_json ( = )
    (fun r -> Json.to_string (Api.detect_report_to_json r))

let prop_coverage_roundtrip =
  roundtrip "coverage json round-trip" coverage_gen Api.coverage_to_json
    Api.coverage_of_json ( = )
    (fun r -> Json.to_string (Api.coverage_to_json r))

let prop_findings_roundtrip =
  roundtrip "findings json round-trip"
    QCheck.Gen.(list_size (int_range 0 4) diag_gen)
    Api.findings_to_json Api.findings_of_json ( = )
    (fun ds -> Json.to_string (Api.findings_to_json ds))

let prop_equiv_verdict_roundtrip =
  roundtrip "equiv-verdict json round-trip" equiv_verdict_gen
    Api.equiv_verdict_to_json Api.equiv_verdict_of_json ( = )
    (fun v -> Json.to_string (Api.equiv_verdict_to_json v))

let prop_timing_report_roundtrip =
  roundtrip "timing-report json round-trip" timing_report_gen
    Api.timing_report_to_json Api.timing_report_of_json ( = )
    (fun r -> Json.to_string (Api.timing_report_to_json r))

let prop_engine_stats_roundtrip =
  roundtrip "engine-stats json round-trip" engine_stats_gen
    Api.engine_stats_to_json Api.engine_stats_of_json ( = )
    (fun s -> Json.to_string (Api.engine_stats_to_json s))

let prop_stats_roundtrip =
  roundtrip "stats json round-trip" stats_payload_gen Api.stats_to_json
    Api.stats_of_json ( = )
    (fun s -> Json.to_string (Api.stats_to_json s))

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request frame round-trip"
    (QCheck.make
       ~print:(fun (id, req) -> Api.encode_request ~id req)
       QCheck.Gen.(pair small_str request_gen))
    (fun (id, req) ->
      match Api.decode_request (Api.encode_request ~id req) with
      | id', Ok req' -> id' = id && req' = req
      | _, Error d -> QCheck.Test.fail_reportf "decode failed: %s" d.message)

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response frame round-trip"
    (QCheck.make ~print:Api.encode_response response_gen)
    (fun r ->
      match Api.decode_response (Api.encode_response r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --- decode totality --------------------------------------------------------- *)

(* One object field of a frame: its parent object, its key, whether it is
   an entry of a diagnostic's context map, and a rebuild of the whole
   frame with the field deleted ([None]) or replaced. *)
type site = {
  parent : (string * Json.t) list;
  key : string;
  in_context : bool;
  rebuild : Json.t option -> Json.t;
}

let rec sites ~in_context j =
  let nested i rebuild_at v =
    List.map
      (fun s -> { s with rebuild = (fun r -> rebuild_at i (Some (s.rebuild r))) })
      v
  in
  match j with
  | Json.Obj kvs ->
      let rebuild_at i repl =
        Json.Obj
          (List.concat
             (List.mapi
                (fun i' (k, v) ->
                  if i' <> i then [ (k, v) ]
                  else match repl with None -> [] | Some v' -> [ (k, v') ])
                kvs))
      in
      List.concat
        (List.mapi
           (fun i (key, v) ->
             { parent = kvs; key; in_context; rebuild = rebuild_at i }
             :: nested i rebuild_at
                  (sites ~in_context:(key = "context") v))
           kvs)
  | Json.List vs ->
      let rebuild_at i repl =
        Json.List
          (List.mapi (fun i' v -> if i' = i then Option.get repl else v) vs)
      in
      List.concat
        (List.mapi (fun i v -> nested i rebuild_at (sites ~in_context:false v)) vs)
  | _ -> []

(* Mutations a decoder may accept: the request id is read leniently, the
   schema stamp is not checked, the engine's "schema" and a "name" beside
   "classes" are derived (encode-only), context entries may go, and a
   nullable field may be absent. *)
let tolerated site ~deleted =
  let op_is o = List.assoc_opt "op" site.parent = Some (Json.String o) in
  if site.in_context then deleted
  else
    match site.key with
    | "schema_version" -> true
    | "schema" -> List.mem_assoc "base" site.parent
    | "id" -> List.mem_assoc "op" site.parent
    | "name" -> List.mem_assoc "classes" site.parent
    | "min_freq" | "budget" | "file" | "context" -> deleted
    | "benchmark" -> deleted && op_is "lint"
    | "size" -> deleted && op_is "corpus-sample"
    | "clock" | "area" -> deleted && op_is "timing"
    | _ -> false

let mutated_frame_gen =
  let open QCheck.Gen in
  let* request, frame =
    oneof
      [ map (fun (id, req) -> (true, Api.encode_request ~id req))
          (pair small_str request_gen);
        map (fun r -> (false, Api.encode_response r)) response_gen ]
  in
  let sites =
    match Json.of_string frame with
    | Ok j -> sites ~in_context:false j
    | Error _ -> []
  in
  let+ site = oneofl sites and+ deleted = bool in
  (request, frame, site, deleted)

(* Deleting one field of a frame, or giving it a value of the wrong JSON
   type, is answered with [Error] — never an exception — unless the
   mutation is one the protocol tolerates; an [Error] caused by a
   required field names that field. *)
let prop_decode_total =
  QCheck.Test.make ~count:500 ~name:"decode total on mutated frames"
    (QCheck.make
       ~print:(fun (_, frame, site, deleted) ->
         Printf.sprintf "%s %S in %s" (if deleted then "delete" else "retype")
           site.key frame)
       mutated_frame_gen)
    (fun (request, _, site, deleted) ->
      let wrong =
        match List.assoc site.key site.parent with
        | Json.Bool _ -> Json.String "x"
        | _ -> Json.Bool true
      in
      let line =
        Json.to_string (site.rebuild (if deleted then None else Some wrong))
      in
      let result =
        try
          if request then
            Result.map_error (fun (d : Diag.t) -> d.message)
              (Result.map ignore (snd (Api.decode_request line)))
          else Result.map ignore (Api.decode_response line)
        with exn ->
          QCheck.Test.fail_reportf "decoder raised %s on %s"
            (Printexc.to_string exn) line
      in
      match result with
      | Ok () ->
          tolerated site ~deleted
          || QCheck.Test.fail_reportf "accepted %s" line
      | Error msg ->
          let name = if site.in_context then "context" else site.key in
          tolerated site ~deleted
          || contains msg (Printf.sprintf "%S" name)
          (* the envelope's api check answers "unsupported api version" *)
          || (name = "api" && contains msg "api version")
          || QCheck.Test.fail_reportf "error %S does not name %S" msg name)

(* --- byte-layout goldens ----------------------------------------------------- *)

(* The round-trip properties would still pass if two fields swapped
   places; these pin the exact encoded bytes of one fixed value per wire
   kind, one request frame per op, and both response shapes. *)

let golden_diag =
  Diag.make ~severity:Diag.Warning ~stage:Diag.Selection ~file:"fir.c"
    ~pos:{ Diag.line = 12; col = 5 }
    ~context:[ ("kind", "clock-violation"); ("chain", "multiply-add") ]
    "chain \"multiply-add\" misses the clock"

let golden_bare_diag = Diag.make ~stage:Diag.Verification "refinement failed"

let golden_cache n =
  { Engine.hits = n; disk_hits = n + 1; misses = n + 2; stores = n + 3;
    corrupt = 0; io_errors = 1 }

let golden_stats =
  { Api.engine =
      { Engine.base = golden_cache 10; sched = golden_cache 20;
        verify = golden_cache 30;
        supervise =
          { Supervise.tasks = 48; attempts = 50; retries = 2; failures = 1;
            timeouts = 0; quarantined = 0; degraded = 1 } };
    service =
      { Api.requests = 7; errors = 1; memo_hits = 3; coalesced = 2;
        uptime_s = 12.5 } }

let golden_timing =
  { Timing.t_benchmark = "fir"; t_level = Opt_level.O1; t_uarch = "risc5";
    t_clock = 2.0; t_baseline_cycles = 63391; t_asip_cycles = 50000;
    t_estimated_speedup = 1.25; t_measured_cycles = 50001;
    t_measured_speedup = 1.375; t_total_area = 3.5;
    t_chains =
      [ { Timing.cr_mnemonic = "mac"; cr_classes = [ "multiply"; "add" ];
          cr_delay = 1.75; cr_slack = 0.25; cr_cycles = 1;
          cr_latency_sum = 4 } ];
    t_rejected = [ golden_diag ] }

let golden_payloads =
  [ ("detect-report",
     Json.to_string
       (Api.detect_report_to_json
          { Detect.detections =
              [ { Detect.classes = [ "multiply"; "add" ]; freq = 12.5;
                  occurrences =
                    [ { Detect.opids = [ (3, 0); (4, 1) ]; count = 2 } ] } ];
            completeness = Detect.Budget_truncated }));
    ("coverage",
     Json.to_string
       (Api.coverage_to_json
          { Coverage.picks =
              [ { Coverage.pick_classes = [ "fload"; "fmultiply" ];
                  pick_freq = 0.375 } ];
            coverage = 0.625; completeness = Detect.Exact }));
    ("findings",
     Json.to_string (Api.findings_to_json [ golden_diag; golden_bare_diag ]));
    ("equiv-verdict",
     Json.to_string
       (Api.equiv_verdict_to_json
          { Api.ev_benchmark = "iir"; ev_levels = 3;
            ev_refinement_failures = 1; ev_counterexamples = 0;
            ev_findings = [ golden_bare_diag ] }));
    ("timing-report", Json.to_string (Api.timing_report_to_json golden_timing));
    ("stats", Json.to_string (Api.stats_to_json golden_stats));
    ("diagnostics",
     Json.to_string (Api.diag_report_to_json [ golden_diag; golden_bare_diag ]));
    ("corpus-summary",
     Json.to_string
       (Api.corpus_summary_to_json
          { Asipfb_corpus.Corpus.seed = 1995; count = 4; size = 12 }
          { Asipfb_corpus.Corpus.total = 4; ok = 3; crashed = 1; timeouts = 0;
            quarantined = 0; dynamic_ops = 660; verify_findings = 2;
            chains = [ ("multiply-add", 25.5); ("add-add", 4.0) ] }));
    ("pong response",
     Api.encode_response { Api.id = "p"; cache = Api.Uncached; body = Ok Api.Pong });
    ("stopping response",
     Api.encode_response
       { Api.id = ""; cache = Api.Uncached; body = Ok Api.Stopping });
    ("corpus-sample response",
     Api.encode_response
       { Api.id = "s"; cache = Api.Uncached;
         body =
           Ok
             (Api.Sample
                { seed = 7; index = 2; size = 9; name = "gen_7_2";
                  source = "int main() {\n  return 0;\n}\n" }) });
    ("error response",
     Api.encode_response
       { Api.id = "e"; cache = Api.Miss; body = Error golden_diag }) ]

let golden_requests =
  [ Api.Ping; Api.Stats; Api.Shutdown;
    Api.Detect
      { benchmark = "fir";
        query =
          { Pipeline.Query.level = Opt_level.O2; length = 3;
            min_freq = Some 1.5; budget = None } };
    Api.Coverage
      { benchmark = "iir";
        query =
          { Pipeline.Query.level = Opt_level.O0; length = 2; min_freq = None;
            budget = Some 5000 } };
    Api.Verify { benchmark = "pse"; mode = `Tv };
    Api.Lint { benchmark = None };
    Api.Corpus_sample { seed = 3; index = 4; size = None };
    Api.Timing
      { benchmark = "dft"; level = Opt_level.O1; uarch = "risc5";
        clock = Some 1.5 } ]

let test_payload_goldens () =
  List.iter2
    (fun (name, actual) expected -> Alcotest.(check string) name expected actual)
    golden_payloads
    [
      "{\"kind\":\"detect-report\",\"schema_version\":3,\"completeness\":\"budget-truncated\",\"detections\":[{\"name\":\"multiply-add\",\"classes\":[\"multiply\",\"add\"],\"freq\":12.5,\"occurrences\":[{\"opids\":[[3,0],[4,1]],\"count\":2}]}]}";
      "{\"kind\":\"coverage\",\"schema_version\":3,\"completeness\":\"exact\",\"coverage\":0.625,\"picks\":[{\"name\":\"fload-fmultiply\",\"classes\":[\"fload\",\"fmultiply\"],\"freq\":0.375}]}";
      "{\"kind\":\"findings\",\"schema_version\":3,\"findings\":[{\"severity\":\"warning\",\"stage\":\"selection\",\"file\":\"fir.c\",\"line\":12,\"col\":5,\"message\":\"chain \\\"multiply-add\\\" misses the clock\",\"context\":{\"kind\":\"clock-violation\",\"chain\":\"multiply-add\"}},{\"severity\":\"error\",\"stage\":\"verification\",\"message\":\"refinement failed\"}]}";
      "{\"kind\":\"equiv-verdict\",\"schema_version\":3,\"benchmark\":\"iir\",\"levels\":3,\"refinement_failures\":1,\"counterexamples\":0,\"findings\":[{\"severity\":\"error\",\"stage\":\"verification\",\"message\":\"refinement failed\"}]}";
      "{\"kind\":\"timing-report\",\"schema_version\":3,\"benchmark\":\"fir\",\"level\":1,\"uarch\":\"risc5\",\"clock\":2.0,\"baseline_cycles\":63391,\"asip_cycles\":50000,\"estimated_speedup\":1.25,\"measured_cycles\":50001,\"measured_speedup\":1.375,\"total_area\":3.5,\"chains\":[{\"mnemonic\":\"mac\",\"classes\":[\"multiply\",\"add\"],\"delay\":1.75,\"slack\":0.25,\"cycles\":1,\"latency_sum\":4}],\"rejected\":[{\"severity\":\"warning\",\"stage\":\"selection\",\"file\":\"fir.c\",\"line\":12,\"col\":5,\"message\":\"chain \\\"multiply-add\\\" misses the clock\",\"context\":{\"kind\":\"clock-violation\",\"chain\":\"multiply-add\"}}]}";
      "{\"kind\":\"stats\",\"schema_version\":3,\"engine\":{\"schema\":\"" ^ Engine.schema_revision ^ "\",\"base\":{\"hits\":10,\"disk_hits\":11,\"misses\":12,\"stores\":13,\"corrupt\":0,\"io_errors\":1},\"sched\":{\"hits\":20,\"disk_hits\":21,\"misses\":22,\"stores\":23,\"corrupt\":0,\"io_errors\":1},\"verify\":{\"hits\":30,\"disk_hits\":31,\"misses\":32,\"stores\":33,\"corrupt\":0,\"io_errors\":1},\"supervise\":{\"tasks\":48,\"attempts\":50,\"retries\":2,\"failures\":1,\"timeouts\":0,\"quarantined\":0,\"degraded\":1}},\"service\":{\"requests\":7,\"errors\":1,\"memo_hits\":3,\"coalesced\":2,\"uptime_s\":12.5}}";
      "{\"kind\":\"diagnostics\",\"schema_version\":3,\"diagnostics\":[{\"severity\":\"warning\",\"stage\":\"selection\",\"file\":\"fir.c\",\"line\":12,\"col\":5,\"message\":\"chain \\\"multiply-add\\\" misses the clock\",\"context\":{\"kind\":\"clock-violation\",\"chain\":\"multiply-add\"}},{\"severity\":\"error\",\"stage\":\"verification\",\"message\":\"refinement failed\"}]}";
      "{\"kind\":\"corpus-summary\",\"schema_version\":3,\"seed\":1995,\"count\":4,\"size\":12,\"total\":4,\"ok\":3,\"crashed\":1,\"timeouts\":0,\"quarantined\":0,\"dynamic_ops\":660,\"verify_findings\":2,\"chains\":[{\"name\":\"multiply-add\",\"share\":25.5},{\"name\":\"add-add\",\"share\":4.0}]}";
      "{\"api\":1,\"id\":\"p\",\"ok\":true,\"cache\":\"none\",\"result\":{\"kind\":\"pong\",\"schema_version\":3}}";
      "{\"api\":1,\"id\":\"\",\"ok\":true,\"cache\":\"none\",\"result\":{\"kind\":\"stopping\",\"schema_version\":3}}";
      "{\"api\":1,\"id\":\"s\",\"ok\":true,\"cache\":\"none\",\"result\":{\"kind\":\"corpus-sample\",\"schema_version\":3,\"seed\":7,\"index\":2,\"size\":9,\"name\":\"gen_7_2\",\"source\":\"int main() {\\n  return 0;\\n}\\n\"}}";
      "{\"api\":1,\"id\":\"e\",\"ok\":false,\"cache\":\"miss\",\"error\":{\"severity\":\"warning\",\"stage\":\"selection\",\"file\":\"fir.c\",\"line\":12,\"col\":5,\"message\":\"chain \\\"multiply-add\\\" misses the clock\",\"context\":{\"kind\":\"clock-violation\",\"chain\":\"multiply-add\"}}}"
    ]

let test_request_goldens () =
  List.iteri
    (fun i (req, expected) ->
      let id = Printf.sprintf "r%d" i in
      Alcotest.(check string) (Api.request_op req) expected
        (Api.encode_request ~id req);
      match Api.decode_request expected with
      | id', Ok req' ->
          Alcotest.(check bool) (Api.request_op req ^ " decodes") true
            (id' = id && req' = req)
      | _, Error d -> Alcotest.failf "golden frame rejected: %s" d.message)
    (List.combine golden_requests
       [
         "{\"api\":1,\"id\":\"r0\",\"op\":\"ping\"}";
         "{\"api\":1,\"id\":\"r1\",\"op\":\"stats\"}";
         "{\"api\":1,\"id\":\"r2\",\"op\":\"shutdown\"}";
         "{\"api\":1,\"id\":\"r3\",\"op\":\"detect\",\"benchmark\":\"fir\",\"query\":{\"level\":2,\"length\":3,\"min_freq\":1.5,\"budget\":null}}";
         "{\"api\":1,\"id\":\"r4\",\"op\":\"coverage\",\"benchmark\":\"iir\",\"query\":{\"level\":0,\"length\":2,\"min_freq\":null,\"budget\":5000}}";
         "{\"api\":1,\"id\":\"r5\",\"op\":\"verify\",\"benchmark\":\"pse\",\"mode\":\"tv\"}";
         "{\"api\":1,\"id\":\"r6\",\"op\":\"lint\",\"benchmark\":null}";
         "{\"api\":1,\"id\":\"r7\",\"op\":\"corpus-sample\",\"seed\":3,\"index\":4,\"size\":null}";
         "{\"api\":1,\"id\":\"r8\",\"op\":\"timing\",\"benchmark\":\"dft\",\"level\":1,\"uarch\":\"risc5\",\"clock\":1.5}"
       ])

(* Any JSON value survives print -> parse -> print (canonical form is a
   fixed point), and the parser is total on arbitrary line noise. *)
let json_gen =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [ return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun f -> Json.Float f) nice_float;
            map (fun s -> Json.String s) small_str ]
      in
      if depth = 0 then leaf
      else
        oneof
          [ leaf;
            map (fun l -> Json.List l) (list_size (int_range 0 3) (self (depth - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 3) (pair small_str (self (depth - 1))))
          ])
    3

let prop_json_print_parse_fixpoint =
  QCheck.Test.make ~count:300 ~name:"json print/parse fixpoint"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j ->
      let s = Json.to_string j in
      match Json.of_string s with
      | Ok j' -> Json.to_string j' = s
      | Error e -> QCheck.Test.fail_reportf "parse failed on %s: %s" s e)

let prop_json_parser_total =
  QCheck.Test.make ~count:500 ~name:"json parser total on noise"
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

(* --- parser edge cases ---------------------------------------------------- *)

let test_json_parser_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok j ->
        Alcotest.failf "expected parse error on %S, got %s" s
          (Json.to_string j)
  in
  bad "";
  bad "{";
  bad "[1,2,";
  bad "{\"a\":}";
  bad "{} trailing";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "nul";
  bad "01e";
  bad "\"ctrl \x01 char\"";
  (* a depth bomb returns Error instead of overflowing the stack *)
  bad (String.concat "" (List.init 10_000 (fun _ -> "[")));
  Alcotest.(check bool) "deep but legal nesting parses" true
    (let depth = 200 in
     let s =
       String.concat ""
         (List.init depth (fun _ -> "[")
         @ [ "1" ]
         @ List.init depth (fun _ -> "]"))
     in
     Result.is_ok (Json.of_string s))

let test_json_values () =
  let ok s expected =
    match Json.of_string s with
    | Ok j -> Alcotest.(check string) s expected (Json.to_string j)
    | Error e -> Alcotest.failf "parse of %S failed: %s" s e
  in
  ok "42" "42";
  ok "-7" "-7";
  ok " { \"a\" : [ 1 , 2.5 , null , true ] } " "{\"a\":[1,2.5,null,true]}";
  ok "\"\\u0041\\n\"" "\"A\\n\"";
  ok "1e2" "100.0";
  ok "1.25" "1.25"

(* --- spliced frames ------------------------------------------------------- *)

let cache_statuses = [ Api.Hit; Api.Join; Api.Miss; Api.Uncached ]

(* Ids carrying every byte class the escaper treats apart: quotes,
   backslashes, control characters, and non-ASCII bytes. *)
let id_gen =
  let open QCheck.Gen in
  string_size (int_range 0 16)
    ~gen:
      (oneof
         [ printable;
           oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1b'; '\x7f' ];
           map Char.chr (int_range 0x80 0xff) ])

(* A memo hit's frame is spliced around the stored result bytes; it
   must be the encoder's frame, byte for byte, for every cache status. *)
let prop_splice_is_encoder =
  QCheck.Test.make ~count:300 ~name:"spliced frame equals the encoder"
    (QCheck.make
       ~print:(fun (id, p) ->
         Api.encode_response { Api.id; cache = Api.Hit; body = Ok p })
       QCheck.Gen.(pair id_gen payload_gen))
    (fun (id, p) ->
      let bytes = Api.encode_payload p in
      List.for_all
        (fun cache ->
          let want = Api.encode_response { Api.id; cache; body = Ok p } in
          let got = Api.splice_response ~id ~cache bytes in
          got = want
          || QCheck.Test.fail_reportf "spliced %s\nencoder %s" got want)
        cache_statuses)

(* --- daemon error paths (handle_line is total) ---------------------------- *)

let make_server () =
  Server.create ~engine:(Engine.create ~jobs:1 ()) ()

let decode_frame frame =
  match Api.decode_response frame with
  | Ok r -> r
  | Error e -> Alcotest.failf "daemon produced an undecodable frame: %s" e

let response_of server line = decode_frame (Server.handle_line server line)

let error_kind (r : Api.response) =
  match r.body with
  | Ok _ -> Alcotest.fail "expected an error response"
  | Error d -> (
      match List.assoc_opt "kind" d.context with
      | Some k -> k
      | None -> Alcotest.fail "error diagnostic carries no kind")

let test_malformed_frames () =
  let server = make_server () in
  Alcotest.(check string) "malformed json" "protocol-error"
    (error_kind (response_of server "{not json"));
  Alcotest.(check string) "non-object frame" "protocol-error"
    (error_kind (response_of server "[1,2,3]"));
  Alcotest.(check string) "missing api" "unsupported-api-version"
    (error_kind (response_of server "{\"op\":\"ping\"}"));
  Alcotest.(check string) "wrong api version" "unsupported-api-version"
    (error_kind (response_of server "{\"api\":99,\"op\":\"ping\"}"));
  Alcotest.(check string) "unknown op" "protocol-error"
    (error_kind (response_of server "{\"api\":1,\"op\":\"frobnicate\"}"));
  Alcotest.(check string) "missing query" "protocol-error"
    (error_kind
       (response_of server "{\"api\":1,\"op\":\"detect\",\"benchmark\":\"fir\"}"));
  (* id still echoes on a decodable-but-invalid request *)
  let r =
    response_of server
      "{\"api\":1,\"id\":\"req-7\",\"op\":\"verify\",\"benchmark\":\"fir\",\"mode\":\"nope\"}"
  in
  Alcotest.(check string) "id echoes on invalid body" "req-7" r.id;
  Alcotest.(check string) "invalid mode" "protocol-error" (error_kind r);
  match r.body with
  | Error d ->
      Alcotest.(check bool) "mode error lists the accepted names" true
        (contains d.message "(expected ir, full, or tv)")
  | Ok _ -> Alcotest.fail "expected an error"

(* Frames from a schema-v1 peer still decode: a v1 result object can
   only carry v1 kinds, and the decoders key on "kind", never on the
   version stamp. *)
let test_v1_frames_decode () =
  let line =
    "{\"api\":1,\"id\":\"old\",\"ok\":true,\"cache\":\"miss\",\
     \"result\":{\"kind\":\"findings\",\"schema_version\":1,\
     \"findings\":[]}}"
  in
  (match Api.decode_response line with
  | Ok { body = Ok (Api.Findings []); id = "old"; _ } -> ()
  | Ok _ -> Alcotest.fail "decoded to the wrong payload"
  | Error e -> Alcotest.failf "v1 frame rejected: %s" e);
  let obj =
    "{\"kind\":\"detect-report\",\"schema_version\":1,\
     \"completeness\":\"exact\",\"detections\":[]}"
  in
  match
    Result.bind
      (Result.map_error (fun e -> e) (Json.of_string obj))
      Api.detect_report_of_json
  with
  | Ok { Detect.detections = []; completeness = Detect.Exact } -> ()
  | Ok _ -> Alcotest.fail "decoded to the wrong report"
  | Error e -> Alcotest.failf "v1 object rejected: %s" e

(* Likewise for schema-v2 frames (pre-timing): the v2 kinds decode
   unchanged after the v3 bump, so old peers keep working. *)
let test_v2_frames_decode () =
  let line =
    "{\"api\":1,\"id\":\"v2\",\"ok\":true,\"cache\":\"miss\",\
     \"result\":{\"kind\":\"equiv-verdict\",\"schema_version\":2,\
     \"benchmark\":\"fir\",\"levels\":3,\"refinement_failures\":0,\
     \"counterexamples\":0,\"findings\":[]}}"
  in
  match Api.decode_response line with
  | Ok
      { body =
          Ok
            (Api.Tv_result
               { Api.ev_benchmark = "fir"; ev_levels = 3;
                 ev_refinement_failures = 0; ev_counterexamples = 0;
                 ev_findings = [] });
        id = "v2";
        _ } ->
      ()
  | Ok _ -> Alcotest.fail "decoded to the wrong payload"
  | Error e -> Alcotest.failf "v2 frame rejected: %s" e

(* Likewise for schema-v3 timing requests: a frame without "area" (every
   frame before the field existed) decodes to [Timing] and re-encodes to
   the same bytes; a frame with it round-trips as [Timing_area]. *)
let test_v3_frames_decode () =
  let roundtrip line =
    match Api.decode_request line with
    | id, Ok req ->
        Alcotest.(check string) "re-encodes byte-identically" line
          (Api.encode_request ~id req);
        req
    | _, Error d -> Alcotest.failf "v3 frame rejected: %s" d.message
  in
  (match
     roundtrip
       "{\"api\":1,\"id\":\"v3\",\"op\":\"timing\",\"benchmark\":\"fir\",\"level\":1,\"uarch\":\"risc5\",\"clock\":null}"
   with
  | Api.Timing { benchmark = "fir"; level = Opt_level.O1; uarch = "risc5";
                 clock = None } -> ()
  | _ -> Alcotest.fail "a frame without area must decode to Timing");
  match
    roundtrip
      "{\"api\":1,\"id\":\"v3\",\"op\":\"timing\",\"benchmark\":\"fir\",\"level\":1,\"uarch\":\"flat\",\"clock\":1.5,\"area\":20.0}"
  with
  | Api.Timing_area { benchmark = "fir"; level = Opt_level.O1;
                      uarch = "flat"; clock = Some 1.5; area = 20.0 } -> ()
  | _ -> Alcotest.fail "a frame with area must decode to Timing_area"

let test_unknown_benchmark () =
  let server = make_server () in
  let line =
    Api.encode_request
      (Api.Detect
         { benchmark = "nosuchbench";
           query = Pipeline.Query.make ~length:2 Opt_level.O1 })
  in
  let r = response_of server line in
  (match r.body with
  | Error d ->
      Alcotest.(check bool) "message names the benchmark" true
        (contains d.message "nosuchbench")
  | Ok _ -> Alcotest.fail "expected an error");
  Alcotest.(check string) "uncached" "none"
    (Api.cache_status_to_string r.cache)

let test_ping_stats_shutdown () =
  let server = make_server () in
  (match (response_of server (Api.encode_request ~id:"a" Api.Ping)).body with
  | Ok Api.Pong -> ()
  | _ -> Alcotest.fail "expected pong");
  (match (response_of server (Api.encode_request Api.Stats)).body with
  | Ok (Api.Stats_result s) ->
      Alcotest.(check int) "requests so far" 2 s.service.requests
  | _ -> Alcotest.fail "expected stats");
  Alcotest.(check bool) "not stopping yet" false (Server.stopping server);
  (match (response_of server (Api.encode_request Api.Shutdown)).body with
  | Ok Api.Stopping -> ()
  | _ -> Alcotest.fail "expected stopping");
  Alcotest.(check bool) "stopping after shutdown" true
    (Server.stopping server)

(* --- in-flight dedup across concurrent clients ---------------------------- *)

(* The timing op end-to-end through the daemon: a flat-uarch request
   answers with a timing report whose measurement agrees with the
   estimate, and an unknown preset is a structured error, not a crash. *)
let test_timing_op () =
  let server = make_server () in
  let line =
    Api.encode_request
      (Api.Timing
         { benchmark = "fir"; level = Opt_level.O1; uarch = "flat";
           clock = None })
  in
  (match (response_of server line).body with
  | Ok (Api.Timing_result r) ->
      Alcotest.(check string) "uarch echoed" "flat" r.Timing.t_uarch;
      Alcotest.(check bool) "estimate and measurement agree" true
        (Timing.agrees r);
      Alcotest.(check int) "flat rejects nothing" 0
        (List.length r.Timing.t_rejected)
  | Ok _ -> Alcotest.fail "expected a timing report"
  | Error d -> Alcotest.failf "timing request failed: %s" d.message);
  (* identical request is memoized *)
  Alcotest.(check string) "second request hits" "hit"
    (Api.cache_status_to_string (response_of server line).cache);
  let bad =
    Api.encode_request
      (Api.Timing
         { benchmark = "fir"; level = Opt_level.O1; uarch = "vliw9000";
           clock = None })
  in
  let r = response_of server bad in
  Alcotest.(check string) "unknown preset kind" "unknown-uarch"
    (error_kind r);
  (* An area budget joins the key and binds the selection: no chain of
     fir fits in 2 adder equivalents. *)
  let small =
    response_of server
      (Api.encode_request
         (Api.Timing_area
            { benchmark = "fir"; level = Opt_level.O1; uarch = "flat";
              clock = None; area = 2.0 }))
  in
  Alcotest.(check string) "area request is its own key" "miss"
    (Api.cache_status_to_string small.cache);
  match small.body with
  | Ok (Api.Timing_result r) ->
      Alcotest.(check int) "nothing fits the area" 0
        (List.length r.Timing.t_chains)
  | _ -> Alcotest.fail "expected a timing report"

(* [Server.answer] is the daemon's computation: its payload encodes to
   the bytes of the daemon's response, and the ops answered from the
   daemon's own state are refused. *)
let test_answer_is_dispatch () =
  let req =
    Api.Coverage
      { benchmark = "fir"; query = Pipeline.Query.make Opt_level.O2 }
  in
  let offline =
    Json.to_string
      (Api.payload_to_json (Server.answer (Engine.sequential ()) req))
  in
  (match (response_of (make_server ()) (Api.encode_request req)).body with
  | Ok p ->
      Alcotest.(check string) "daemon payload bytes" offline
        (Json.to_string (Api.payload_to_json p))
  | Error d -> Alcotest.failf "coverage failed: %s" d.message);
  (match Server.answer (Engine.sequential ()) Api.Ping with
  | _ -> Alcotest.fail "ping must be refused"
  | exception Invalid_argument _ -> ());
  match
    Server.answer (Engine.sequential ())
      (Api.Lint { benchmark = Some "nosuchbench" })
  with
  | _ -> Alcotest.fail "an unknown benchmark must raise"
  | exception Diag.Diag_error d ->
      Alcotest.(check (option string)) "names the benchmark"
        (Some "nosuchbench") (List.assoc_opt "benchmark" d.context)

let test_concurrent_dedup () =
  let engine = Engine.create ~jobs:1 () in
  let server = Server.create ~engine () in
  let line =
    Api.encode_request
      (Api.Detect
         { benchmark = "fir";
           query = Pipeline.Query.make ~length:2 Opt_level.O1 })
  in
  let frames =
    Pool.run ~jobs:4 (Array.init 4 (fun _ () -> Server.handle_line server line))
  in
  let responses = Array.map decode_frame frames in
  let payloads =
    Array.map
      (fun (r : Api.response) ->
        match r.body with
        | Ok p -> p
        | Error d -> Alcotest.failf "request failed: %s" d.message)
      responses
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "all payloads identical" true (p = payloads.(0)))
    payloads;
  let count status =
    Array.to_list responses
    |> List.filter (fun (r : Api.response) -> r.cache = status)
    |> List.length
  in
  Alcotest.(check int) "exactly one miss" 1 (count Api.Miss);
  Alcotest.(check int) "the rest hit or join" 3
    (count Api.Hit + count Api.Join);
  (* the engine computed the analysis exactly once: no frontend/sched
     recomputation behind the coalescing *)
  let stats = Engine.stats engine in
  Alcotest.(check int) "one base analysis" 1 stats.base.misses;
  Alcotest.(check int) "no base cache hits needed" 0 stats.base.hits;
  (* a later identical request is a memo hit and still recomputes nothing *)
  let r5 = response_of server line in
  Alcotest.(check string) "second round is a hit" "hit"
    (Api.cache_status_to_string r5.cache);
  Alcotest.(check int) "still one base analysis" 1
    (Engine.stats engine).base.misses

(* The memo is bounded: a stream of fresh questions evicts the least
   recently used answers, never one that keeps being asked, and an
   evicted question recomputes the same bytes. *)
let test_memo_bounded () =
  let server = make_server () in
  let detect ?budget () =
    Api.encode_request
      (Api.Detect
         { benchmark = "fir";
           query = Pipeline.Query.make ~length:2 ?budget Opt_level.O1 })
  in
  let status line =
    Api.cache_status_to_string (response_of server line).cache
  in
  let warmed = detect () in
  Alcotest.(check string) "warm-up computes" "miss" (status warmed);
  let first = detect ~budget:0 () in
  let first_frame = Server.handle_line server first in
  for budget = 1 to Server.memo_capacity + 8 do
    Alcotest.(check string) "fresh budget computes" "miss"
      (status (detect ~budget ()));
    Alcotest.(check string) "warmed question stays a hit" "hit"
      (status warmed);
    if Server.memo_size server > Server.memo_capacity then
      Alcotest.failf "memo holds %d > %d responses" (Server.memo_size server)
        Server.memo_capacity
  done;
  Alcotest.(check int) "memo full" Server.memo_capacity
    (Server.memo_size server);
  (* Both frames say "miss": the budget-0 answer was evicted and
     recomputed, not served from the memo. *)
  Alcotest.(check string) "evicted question recomputes byte-identically"
    first_frame
    (Server.handle_line server first)

(* A hit is served from the memo's bytes: its frame is the miss frame
   with only the cache status changed, whatever the op and the id. *)
let test_hit_frame_is_miss_frame () =
  let server = make_server () in
  let replace_first s ~sub ~by =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then Alcotest.failf "%S not in %s" sub s
      else if String.sub s i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  List.iter
    (fun (id, req) ->
      let line = Api.encode_request ~id req in
      let miss = Server.handle_line server line in
      let hit = Server.handle_line server line in
      Alcotest.(check string)
        (Api.request_op req ^ ": hit frame is the miss frame")
        (replace_first miss ~sub:"\"cache\":\"miss\""
           ~by:"\"cache\":\"hit\"")
        hit)
    [ ( "q\"uote\\back\x01ctl\xc3\xa9",
        Api.Detect
          { benchmark = "fir";
            query = Pipeline.Query.make ~length:2 Opt_level.O1 } );
      ("", Api.Coverage
             { benchmark = "iir"; query = Pipeline.Query.make Opt_level.O2 });
      ("t\n1", Api.Timing
                 { benchmark = "fir"; level = Opt_level.O1; uarch = "risc5";
                   clock = Some 1.25 });
      ("v", Api.Verify { benchmark = "fir"; mode = `Ir }) ]

(* --- socket-level end-to-end ---------------------------------------------- *)

let temp_socket_path () =
  let path = Filename.temp_file "asipfb_service" ".sock" in
  Sys.remove path;
  path

let test_socket_end_to_end () =
  let socket = temp_socket_path () in
  let engine = Engine.create ~jobs:1 () in
  let server = Server.create ~engine () in
  let daemon =
    Domain.spawn (fun () -> Server.serve server ~socket ~workers:2 ())
  in
  let rec wait_for_socket n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if not (Sys.file_exists socket) then begin
      Unix.sleepf 0.05;
      wait_for_socket (n - 1)
    end
  in
  wait_for_socket 200;
  (* a second daemon on the same socket refuses with a one-line error *)
  (match
     Server.serve (Server.create ~engine ()) ~socket ~workers:1 ()
   with
  | Error msg ->
      Alcotest.(check bool) "refusal names the live daemon" true
        (contains msg "already served")
  | Ok () -> Alcotest.fail "second daemon must refuse a live socket");
  let c =
    match Client.connect ~socket with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (match Client.rpc c ~id:"ping-1" Api.Ping with
  | Ok { Api.id = "ping-1"; body = Ok Api.Pong; _ } -> ()
  | Ok _ -> Alcotest.fail "unexpected ping response"
  | Error e -> Alcotest.fail e);
  (* malformed frames come back as structured errors on the same
     connection, which stays usable *)
  (match Client.rpc_raw c "{broken" with
  | Ok frame -> (
      match Api.decode_response frame with
      | Ok r ->
          Alcotest.(check string) "malformed frame -> protocol error"
            "protocol-error" (error_kind r)
      | Error e -> Alcotest.failf "undecodable error frame: %s" e)
  | Error e -> Alcotest.fail e);
  (match Client.rpc c Api.Shutdown with
  | Ok { Api.body = Ok Api.Stopping; _ } -> ()
  | Ok _ -> Alcotest.fail "unexpected shutdown response"
  | Error e -> Alcotest.fail e);
  Client.close c;
  (match Domain.join daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon exited with error: %s" e);
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists socket)

(* A frame past [Server.max_frame_bytes] gets one protocol-error reply
   and its connection closes; a client on another connection is served
   before and after. *)
let test_frame_bound () =
  let socket = temp_socket_path () in
  let server = Server.create ~engine:(Engine.create ~jobs:1 ()) () in
  let daemon =
    Domain.spawn (fun () -> Server.serve server ~socket ~workers:2 ())
  in
  let rec connect n =
    match Client.connect ~socket with
    | Ok c -> c
    | Error e ->
        if n = 0 then Alcotest.fail e
        else begin
          Unix.sleepf 0.05;
          connect (n - 1)
        end
  in
  let other = connect 200 in
  let ping () =
    match Client.rpc other Api.Ping with
    | Ok { Api.body = Ok Api.Pong; _ } -> ()
    | Ok _ -> Alcotest.fail "unexpected ping response"
    | Error e -> Alcotest.fail e
  in
  ping ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let big = Bytes.make (Server.max_frame_bytes + 1) 'x' in
  let rec send off =
    if off < Bytes.length big then
      send (off + Unix.write fd big off (Bytes.length big - off))
  in
  send 0;
  let reply = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec recv () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes reply chunk 0 n;
        recv ()
  in
  recv ();
  Unix.close fd;
  (match String.split_on_char '\n' (Buffer.contents reply) with
  | [ frame; "" ] -> (
      let r = decode_frame frame in
      Alcotest.(check string) "oversized frame -> protocol error"
        "protocol-error" (error_kind r);
      match r.body with
      | Error d ->
          Alcotest.(check (option string)) "names the limit"
            (Some (string_of_int Server.max_frame_bytes))
            (List.assoc_opt "limit" d.context)
      | Ok _ -> ())
  | _ ->
      Alcotest.failf "expected one reply line, then EOF; got %S"
        (Buffer.contents reply));
  ping ();
  (match Client.rpc other Api.Shutdown with
  | Ok { Api.body = Ok Api.Stopping; _ } -> ()
  | _ -> Alcotest.fail "unexpected shutdown response");
  Client.close other;
  match Domain.join daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon exited with error: %s" e

let test_refuses_non_socket () =
  let path = Filename.temp_file "asipfb_service" ".regular" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match
        Server.serve
          (Server.create ~engine:(Engine.sequential ()) ())
          ~socket:path ~workers:1 ()
      with
      | Error msg ->
          Alcotest.(check bool) "refuses to replace a regular file" true
            (contains msg "not a socket");
          Alcotest.(check bool) "file survives" true (Sys.file_exists path)
      | Ok () -> Alcotest.fail "serve must refuse a non-socket path")

let suite =
  [
    ( "service",
      [
        QCheck_alcotest.to_alcotest prop_query_roundtrip;
        QCheck_alcotest.to_alcotest prop_diag_roundtrip;
        QCheck_alcotest.to_alcotest prop_detect_roundtrip;
        QCheck_alcotest.to_alcotest prop_coverage_roundtrip;
        QCheck_alcotest.to_alcotest prop_findings_roundtrip;
        QCheck_alcotest.to_alcotest prop_equiv_verdict_roundtrip;
        QCheck_alcotest.to_alcotest prop_timing_report_roundtrip;
        QCheck_alcotest.to_alcotest prop_engine_stats_roundtrip;
        QCheck_alcotest.to_alcotest prop_stats_roundtrip;
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_roundtrip;
        QCheck_alcotest.to_alcotest prop_splice_is_encoder;
        QCheck_alcotest.to_alcotest prop_decode_total;
        Alcotest.test_case "payload byte goldens" `Quick test_payload_goldens;
        Alcotest.test_case "request byte goldens" `Quick test_request_goldens;
        QCheck_alcotest.to_alcotest prop_json_print_parse_fixpoint;
        QCheck_alcotest.to_alcotest prop_json_parser_total;
        Alcotest.test_case "json parser errors" `Quick test_json_parser_errors;
        Alcotest.test_case "json values" `Quick test_json_values;
        Alcotest.test_case "malformed frames" `Quick test_malformed_frames;
        Alcotest.test_case "v1 frames decode" `Quick test_v1_frames_decode;
        Alcotest.test_case "v2 frames decode" `Quick test_v2_frames_decode;
        Alcotest.test_case "v3 frames decode" `Quick test_v3_frames_decode;
        Alcotest.test_case "unknown benchmark" `Quick test_unknown_benchmark;
        Alcotest.test_case "timing op" `Quick test_timing_op;
        Alcotest.test_case "answer is dispatch" `Quick test_answer_is_dispatch;
        Alcotest.test_case "ping/stats/shutdown" `Quick
          test_ping_stats_shutdown;
        Alcotest.test_case "concurrent dedup" `Quick test_concurrent_dedup;
        Alcotest.test_case "memo bounded" `Quick test_memo_bounded;
        Alcotest.test_case "hit frame is the miss frame" `Quick
          test_hit_frame_is_miss_frame;
        Alcotest.test_case "socket end-to-end" `Quick test_socket_end_to_end;
        Alcotest.test_case "frame bound" `Quick test_frame_bound;
        Alcotest.test_case "refuses non-socket" `Quick
          test_refuses_non_socket;
      ] );
  ]
