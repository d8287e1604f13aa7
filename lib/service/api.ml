(* The versioned wire API.  Every type that crosses the service boundary
   is described once, as a codec built field by field in wire order; its
   encoder and decoder both derive from that description.  The same
   codecs back the offline CLI's --json output, so daemon and CLI share
   one schema. *)

module Pipeline = Asipfb.Pipeline
module Timing = Asipfb.Timing
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Diag = Asipfb_diag.Diag
module Engine = Asipfb_engine.Engine
module Cache = Asipfb_engine.Cache
module Supervise = Asipfb_supervise.Supervise
module Corpus = Asipfb_corpus.Corpus

let api_version = 1

(* v2 added the translation-validation surface: verify mode "tv" and the
   "equiv-verdict" payload.  v3 added the microarchitecture-aware timing
   surface: the "timing" op and the "timing-report" payload.  Decoders
   are lenient on schema_version, so v1/v2 frames (which can only carry
   the kinds of their era) still decode. *)
let schema_version = 3

type request =
  | Ping
  | Stats
  | Shutdown
  | Detect of { benchmark : string; query : Pipeline.Query.t }
  | Coverage of { benchmark : string; query : Pipeline.Query.t }
  | Verify of { benchmark : string; mode : [ `Ir | `Full | `Tv ] }
  | Lint of { benchmark : string option }
  | Corpus_sample of { seed : int; index : int; size : int option }
  | Timing of { benchmark : string; level : Opt_level.t; uarch : string;
                clock : float option }

type cache_status = Hit | Join | Miss | Uncached

type service_stats = {
  requests : int;
  errors : int;
  memo_hits : int;
  coalesced : int;
  uptime_s : float;
}

type stats_payload = { engine : Engine.stats; service : service_stats }

type equiv_verdict = {
  ev_benchmark : string;
  ev_levels : int;
  ev_refinement_failures : int;
  ev_counterexamples : int;
  ev_findings : Diag.t list;
}

type payload =
  | Pong
  | Stopping
  | Detect_result of Detect.report
  | Coverage_result of Coverage.result
  | Findings of Diag.t list
  | Stats_result of stats_payload
  | Tv_result of equiv_verdict
  | Sample of { seed : int; index : int; size : int; name : string;
                source : string }
  | Timing_result of Timing.report

type response = {
  id : string;
  cache : cache_status;
  body : (payload, Diag.t) result;
}

(* --- protocol diagnostics ----------------------------------------------- *)

let protocol_error ?(context = []) message =
  Diag.make ~stage:Diag.Driver
    ~context:(("kind", "protocol-error") :: context)
    message

let unsupported_version offered =
  let offered_s =
    match offered with Some v -> string_of_int v | None -> "absent"
  in
  Diag.make ~stage:Diag.Driver
    ~context:
      [ ("kind", "unsupported-api-version"); ("api", offered_s);
        ("supported", string_of_int api_version) ]
    (Printf.sprintf
       "unsupported api version %s (this daemon speaks api %d)" offered_s
       api_version)

(* --- codecs --------------------------------------------------------------- *)

let ( let* ) = Result.bind

(* One wire type, both directions.  [kind] names the top-level objects
   that lead with the kind/schema_version header ({!kinded}). *)
type 'a codec = {
  enc : 'a -> Json.t;
  dec : Json.t -> ('a, string) result;
  kind : string option;
}

let codec enc dec = { enc; dec; kind = None }

let scalar what enc proj =
  codec enc (fun v ->
      match proj v with Some x -> Ok x | None -> Error ("must be " ^ what))

let int = scalar "an integer" (fun i -> Json.Int i) Json.to_int
let float = scalar "a number" (fun f -> Json.Float f) Json.to_float
let string = scalar "a string" (fun s -> Json.String s) Json.to_str
let bool = scalar "a boolean" (fun b -> Json.Bool b) Json.to_bool

let map_result f l =
  List.fold_left (fun acc x -> let* ys = acc in let* y = f x in Ok (y :: ys)) (Ok []) l
  |> Result.map List.rev

let list c =
  codec
    (fun l -> Json.List (List.map c.enc l))
    (function Json.List l -> map_result c.dec l | _ -> Error "must be an array")

(* [None] encodes as [null]; [null] and a missing field decode as [None]. *)
let nullable c =
  codec
    (function Some x -> c.enc x | None -> Json.Null)
    (function Json.Null -> Ok None | v -> Result.map Option.some (c.dec v))

(* "ir, full, or tv" *)
let one_of names =
  match List.rev names with
  | [] -> ""
  | [ n ] -> n
  | [ b; a ] -> a ^ " or " ^ b
  | last :: rest -> String.concat ", " (List.rev rest) ^ ", or " ^ last

(* A closed set of values named by a [(value, name)] table; errors list
   the accepted names. *)
let enum what table =
  let expected = "(expected " ^ one_of (List.map snd table) ^ ")" in
  codec
    (fun v -> Json.String (List.assoc v table))
    (function
      | Json.String s -> (
          match List.find_opt (fun (_, n) -> n = s) table with
          | Some (v, _) -> Ok v
          | None -> Error (Printf.sprintf "unknown %s %S %s" what s expected))
      | _ -> Error ("must be a string " ^ expected))

(* A record under construction: encoders of the fields described so far,
   last field first, and a decoder that feeds the decoded fields in wire
   order to the record's constructor. *)
type ('r, 'k) fields = {
  encs : ('r -> (string * Json.t) list -> (string * Json.t) list) list;
  decs : Json.t -> ('k, string) result;
  tag : string option;
}

let obj k = { encs = []; decs = (fun _ -> Ok k); tag = None }

(* A missing field decodes like [null]: a nullable codec reads it as
   [None], every other codec reports the field missing. *)
let member name c j =
  match Json.member name j with
  | Some v -> Result.map_error (Printf.sprintf "field %S: %s" name) (c.dec v)
  | None ->
      Result.map_error
        (fun _ -> Printf.sprintf "missing field %S" name)
        (c.dec Json.Null)

(* [skip] leaves the field out of the encoding when it holds for the
   value; such a field must decode from absence ([nullable], say). *)
let field ?skip name c get b =
  let enc r acc =
    let v = get r in
    match skip with Some s when s v -> acc | _ -> (name, c.enc v) :: acc
  in
  { b with
    encs = enc :: b.encs;
    decs =
      (fun j ->
        let* k = b.decs j in
        let* v = member name c j in
        Ok (k v)) }

(* An encode-only field, computed from the record and ignored on decode. *)
let derived name c get b =
  { b with encs = (fun r acc -> (name, c.enc (get r)) :: acc) :: b.encs }

(* The kind/schema_version header every top-level object leads with;
   decoding checks the kind and ignores the version stamp. *)
let kinded kind b =
  let header = [ ("kind", Json.String kind);
                 ("schema_version", Json.Int schema_version) ] in
  { encs = (fun _ acc -> header @ acc) :: b.encs;
    decs =
      (fun j ->
        let* found = member "kind" string j in
        if found = kind then b.decs j
        else Error (Printf.sprintf "expected kind %S, found %S" kind found));
    tag = Some kind }

(* Close a record whose constructor may reject a combination of fields. *)
let seal_checked b =
  { enc = (fun r -> Json.Obj (List.fold_left (fun acc e -> e r acc) [] b.encs));
    dec = (function Json.Obj _ as j -> Result.join (b.decs j)
                  | _ -> Error "must be an object");
    kind = b.tag }

let seal b = seal_checked { b with decs = (fun j -> Result.map Result.ok (b.decs j)) }

(* --- case tables ----------------------------------------------------------- *)

(* One constructor of a variant: its wire name, the codec of its
   arguments, and the injection/projection between the two.  A table of
   cases is the variant's only description: naming, encoding and
   decoding all read it. *)
type 'v case =
  | Case : { name : string; codec : 'a codec; inj : 'a -> 'v;
             prj : 'v -> 'a option } -> 'v case

(* Payload cases are named by their codec's kind, request cases by op. *)
let case ?name codec inj prj =
  match (name, codec.kind) with
  | Some name, _ | None, Some name -> Case { name; codec; inj; prj }
  | None, None -> invalid_arg "Api.case: a case needs a name or a kind"

(* [v]'s case; every table is exhaustive. *)
let case_of cases v =
  match List.find_opt (fun (Case c) -> Option.is_some (c.prj v)) cases with
  | Some case -> case
  | None -> invalid_arg "Api: a case table misses a constructor"

let encode_case cases v =
  let (Case c) = case_of cases v in
  (c.name, c.codec.enc (Option.get (c.prj v)))

let decode_case cases name j =
  List.find_map
    (fun (Case c) ->
      if c.name = name then Some (Result.map c.inj (c.codec.dec j)) else None)
    cases

(* --- query ----------------------------------------------------------------- *)

let level =
  scalar "an optimization level (0, 1, or 2)"
    (fun l -> Json.Int (Opt_level.to_int l))
    (function
      | Json.Int i -> Opt_level.of_int i
      | Json.String s -> Opt_level.of_string s
      | _ -> None)

let query =
  obj (fun level length min_freq budget ->
      { Pipeline.Query.level; length; min_freq; budget })
  |> field "level" level (fun q -> q.Pipeline.Query.level)
  |> field "length" int (fun q -> q.Pipeline.Query.length)
  |> field "min_freq" (nullable float) (fun q -> q.Pipeline.Query.min_freq)
  |> field "budget" (nullable int) (fun q -> q.Pipeline.Query.budget)
  |> seal

(* --- diagnostics ----------------------------------------------------------- *)

let severity =
  enum "severity"
    (List.map (fun s -> (s, Diag.severity_to_string s))
       [ Diag.Info; Diag.Warning; Diag.Error ])

let stage =
  enum "stage"
    (List.map (fun s -> (s, Diag.stage_to_string s))
       [ Diag.Frontend; Diag.Simulation; Diag.Scheduling; Diag.Detection;
         Diag.Coverage; Diag.Verification; Diag.Selection; Diag.Reporting;
         Diag.Driver ])

(* Context is a string-valued object, omitted when empty. *)
let context =
  codec
    (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs))
    (function
      | Json.Null -> Ok []
      | Json.Obj kvs ->
          map_result
            (fun (k, v) ->
              match Json.to_str v with
              | Some s -> Ok (k, s)
              | None -> Error "must hold string values")
            kvs
      | _ -> Error "must be an object")

let diag =
  let pos_part f (d : Diag.t) = Option.map f d.pos in
  obj (fun severity stage file line col message context ->
      match (line, col) with
      | None, None -> Ok { Diag.severity; stage; file; pos = None; message; context }
      | Some line, Some col ->
          Ok { Diag.severity; stage; file; pos = Some { line; col }; message;
               context }
      | _ -> Error "fields \"line\" and \"col\" must appear together")
  |> field "severity" severity (fun d -> d.Diag.severity)
  |> field "stage" stage (fun d -> d.Diag.stage)
  |> field ~skip:Option.is_none "file" (nullable string) (fun d -> d.Diag.file)
  |> field ~skip:Option.is_none "line" (nullable int) (pos_part (fun p -> p.line))
  |> field ~skip:Option.is_none "col" (nullable int) (pos_part (fun p -> p.col))
  |> field "message" string (fun d -> d.Diag.message)
  |> field ~skip:(( = ) []) "context" context (fun d -> d.Diag.context)
  |> seal_checked

(* --- detection and coverage ------------------------------------------------ *)

let completeness =
  enum "completeness"
    [ (Detect.Exact, "exact"); (Detect.Budget_truncated, "budget-truncated") ]

let classes = list string

let occurrence =
  let pair =
    codec
      (fun (opid, iter) -> Json.List [ Json.Int opid; Json.Int iter ])
      (function
        | Json.List [ Json.Int opid; Json.Int iter ] -> Ok (opid, iter)
        | _ -> Error "must hold [opid, iter] pairs")
  in
  obj (fun opids count -> { Detect.opids; count })
  |> field "opids" (list pair) (fun o -> o.Detect.opids)
  |> field "count" int (fun o -> o.Detect.count)
  |> seal

let detected =
  obj (fun classes freq occurrences -> { Detect.classes; freq; occurrences })
  |> derived "name" string Detect.display_name
  |> field "classes" classes (fun d -> d.Detect.classes)
  |> field "freq" float (fun d -> d.Detect.freq)
  |> field "occurrences" (list occurrence) (fun d -> d.Detect.occurrences)
  |> seal

let detect_report =
  obj (fun completeness detections -> { Detect.detections; completeness })
  |> kinded "detect-report"
  |> field "completeness" completeness (fun r -> r.Detect.completeness)
  |> field "detections" (list detected) (fun r -> r.Detect.detections)
  |> seal

let pick =
  obj (fun pick_classes pick_freq -> { Coverage.pick_classes; pick_freq })
  |> derived "name" string (fun p ->
         Asipfb_chain.Chainop.sequence_name p.Coverage.pick_classes)
  |> field "classes" classes (fun p -> p.Coverage.pick_classes)
  |> field "freq" float (fun p -> p.Coverage.pick_freq)
  |> seal

let coverage =
  obj (fun completeness coverage picks -> { Coverage.picks; coverage; completeness })
  |> kinded "coverage"
  |> field "completeness" completeness (fun r -> r.Coverage.completeness)
  |> field "coverage" float (fun r -> r.Coverage.coverage)
  |> field "picks" (list pick) (fun r -> r.Coverage.picks)
  |> seal

(* --- verifier findings and the translation-validation verdict -------------- *)

let findings =
  obj Fun.id |> kinded "findings" |> field "findings" (list diag) Fun.id |> seal

let equiv_verdict =
  obj (fun ev_benchmark ev_levels ev_refinement_failures ev_counterexamples
           ev_findings ->
      { ev_benchmark; ev_levels; ev_refinement_failures; ev_counterexamples;
        ev_findings })
  |> kinded "equiv-verdict"
  |> field "benchmark" string (fun v -> v.ev_benchmark)
  |> field "levels" int (fun v -> v.ev_levels)
  |> field "refinement_failures" int (fun v -> v.ev_refinement_failures)
  |> field "counterexamples" int (fun v -> v.ev_counterexamples)
  |> field "findings" (list diag) (fun v -> v.ev_findings)
  |> seal

(* --- microarchitecture timing report ---------------------------------------- *)

let chain_report =
  obj (fun cr_mnemonic cr_classes cr_delay cr_slack cr_cycles cr_latency_sum ->
      { Timing.cr_mnemonic; cr_classes; cr_delay; cr_slack; cr_cycles;
        cr_latency_sum })
  |> field "mnemonic" string (fun c -> c.Timing.cr_mnemonic)
  |> field "classes" classes (fun c -> c.Timing.cr_classes)
  |> field "delay" float (fun c -> c.Timing.cr_delay)
  |> field "slack" float (fun c -> c.Timing.cr_slack)
  |> field "cycles" int (fun c -> c.Timing.cr_cycles)
  |> field "latency_sum" int (fun c -> c.Timing.cr_latency_sum)
  |> seal

let timing_report =
  obj (fun t_benchmark t_level t_uarch t_clock t_baseline_cycles t_asip_cycles
           t_estimated_speedup t_measured_cycles t_measured_speedup
           t_total_area t_chains t_rejected ->
      { Timing.t_benchmark; t_level; t_uarch; t_clock; t_baseline_cycles;
        t_asip_cycles; t_estimated_speedup; t_measured_cycles;
        t_measured_speedup; t_total_area; t_chains; t_rejected })
  |> kinded "timing-report"
  |> field "benchmark" string (fun r -> r.Timing.t_benchmark)
  |> field "level" level (fun r -> r.Timing.t_level)
  |> field "uarch" string (fun r -> r.Timing.t_uarch)
  |> field "clock" float (fun r -> r.Timing.t_clock)
  |> field "baseline_cycles" int (fun r -> r.Timing.t_baseline_cycles)
  |> field "asip_cycles" int (fun r -> r.Timing.t_asip_cycles)
  |> field "estimated_speedup" float (fun r -> r.Timing.t_estimated_speedup)
  |> field "measured_cycles" int (fun r -> r.Timing.t_measured_cycles)
  |> field "measured_speedup" float (fun r -> r.Timing.t_measured_speedup)
  |> field "total_area" float (fun r -> r.Timing.t_total_area)
  |> field "chains" (list chain_report) (fun r -> r.Timing.t_chains)
  |> field "rejected" (list diag) (fun r -> r.Timing.t_rejected)
  |> seal

(* --- engine and service statistics ------------------------------------------ *)

let cache_stats =
  obj (fun hits disk_hits misses stores corrupt io_errors ->
      { Cache.hits; disk_hits; misses; stores; corrupt; io_errors })
  |> field "hits" int (fun s -> s.Cache.hits)
  |> field "disk_hits" int (fun s -> s.Cache.disk_hits)
  |> field "misses" int (fun s -> s.Cache.misses)
  |> field "stores" int (fun s -> s.Cache.stores)
  |> field "corrupt" int (fun s -> s.Cache.corrupt)
  |> field "io_errors" int (fun s -> s.Cache.io_errors)
  |> seal

let supervise_stats =
  obj (fun tasks attempts retries failures timeouts quarantined degraded ->
      { Supervise.tasks; attempts; retries; failures; timeouts; quarantined;
        degraded })
  |> field "tasks" int (fun s -> s.Supervise.tasks)
  |> field "attempts" int (fun s -> s.Supervise.attempts)
  |> field "retries" int (fun s -> s.Supervise.retries)
  |> field "failures" int (fun s -> s.Supervise.failures)
  |> field "timeouts" int (fun s -> s.Supervise.timeouts)
  |> field "quarantined" int (fun s -> s.Supervise.quarantined)
  |> field "degraded" int (fun s -> s.Supervise.degraded)
  |> seal

let engine_stats =
  obj (fun base sched verify supervise -> { Engine.base; sched; verify; supervise })
  |> derived "schema" string (fun _ -> Engine.schema_revision)
  |> field "base" cache_stats (fun s -> s.Engine.base)
  |> field "sched" cache_stats (fun s -> s.Engine.sched)
  |> field "verify" cache_stats (fun s -> s.Engine.verify)
  |> field "supervise" supervise_stats (fun s -> s.Engine.supervise)
  |> seal

let service_stats =
  obj (fun requests errors memo_hits coalesced uptime_s ->
      { requests; errors; memo_hits; coalesced; uptime_s })
  |> field "requests" int (fun s -> s.requests)
  |> field "errors" int (fun s -> s.errors)
  |> field "memo_hits" int (fun s -> s.memo_hits)
  |> field "coalesced" int (fun s -> s.coalesced)
  |> field "uptime_s" float (fun s -> s.uptime_s)
  |> seal

let stats =
  obj (fun engine service -> { engine; service })
  |> kinded "stats"
  |> field "engine" engine_stats (fun p -> p.engine)
  |> field "service" service_stats (fun p -> p.service)
  |> seal

(* --- offline-only envelopes ------------------------------------------------- *)

let diag_report =
  obj Fun.id |> kinded "diagnostics" |> field "diagnostics" (list diag) Fun.id
  |> seal

let corpus_summary =
  let chain =
    obj (fun name share -> (name, share))
    |> field "name" string fst |> field "share" float snd |> seal
  in
  obj (fun seed count size total ok crashed timeouts quarantined dynamic_ops
           verify_findings chains ->
      ( { Corpus.seed; count; size },
        { Corpus.total; ok; crashed; timeouts; quarantined; dynamic_ops;
          verify_findings; chains } ))
  |> kinded "corpus-summary"
  |> field "seed" int (fun (sp, _) -> sp.Corpus.seed)
  |> field "count" int (fun (sp, _) -> sp.Corpus.count)
  |> field "size" int (fun (sp, _) -> sp.Corpus.size)
  |> field "total" int (fun (_, s) -> s.Corpus.total)
  |> field "ok" int (fun (_, s) -> s.Corpus.ok)
  |> field "crashed" int (fun (_, s) -> s.Corpus.crashed)
  |> field "timeouts" int (fun (_, s) -> s.Corpus.timeouts)
  |> field "quarantined" int (fun (_, s) -> s.Corpus.quarantined)
  |> field "dynamic_ops" int (fun (_, s) -> s.Corpus.dynamic_ops)
  |> field "verify_findings" int (fun (_, s) -> s.Corpus.verify_findings)
  |> field "chains" (list chain) (fun (_, s) -> s.Corpus.chains)
  |> seal

(* --- payloads, keyed by kind ------------------------------------------------- *)

let sample =
  obj (fun seed index size name source -> (seed, index, size, name, source))
  |> kinded "corpus-sample"
  |> field "seed" int (fun (s, _, _, _, _) -> s)
  |> field "index" int (fun (_, i, _, _, _) -> i)
  |> field "size" int (fun (_, _, z, _, _) -> z)
  |> field "name" string (fun (_, _, _, n, _) -> n)
  |> field "source" string (fun (_, _, _, _, s) -> s)
  |> seal

let payload_cases =
  let bare kind = obj () |> kinded kind |> seal in
  [ case (bare "pong") (fun () -> Pong) (function Pong -> Some () | _ -> None);
    case (bare "stopping") (fun () -> Stopping)
      (function Stopping -> Some () | _ -> None);
    case detect_report (fun r -> Detect_result r)
      (function Detect_result r -> Some r | _ -> None);
    case coverage (fun r -> Coverage_result r)
      (function Coverage_result r -> Some r | _ -> None);
    case findings (fun ds -> Findings ds)
      (function Findings ds -> Some ds | _ -> None);
    case stats (fun p -> Stats_result p)
      (function Stats_result p -> Some p | _ -> None);
    case equiv_verdict (fun v -> Tv_result v)
      (function Tv_result v -> Some v | _ -> None);
    case sample
      (fun (seed, index, size, name, source) ->
        Sample { seed; index; size; name; source })
      (function
        | Sample { seed; index; size; name; source } ->
            Some (seed, index, size, name, source)
        | _ -> None);
    case timing_report (fun r -> Timing_result r)
      (function Timing_result r -> Some r | _ -> None) ]

let payload =
  codec
    (fun p -> snd (encode_case payload_cases p))
    (fun j ->
      let* kind = member "kind" string j in
      match decode_case payload_cases kind j with
      | Some r -> r
      | None -> Error (Printf.sprintf "unknown result kind %S" kind))

(* --- requests, keyed by op ---------------------------------------------------- *)

let mode = enum "verify mode" [ (`Ir, "ir"); (`Full, "full"); (`Tv, "tv") ]

let request_cases =
  let bare = obj () |> seal in
  let bench_query =
    obj (fun benchmark query -> (benchmark, query))
    |> field "benchmark" string fst |> field "query" query snd |> seal
  in
  [ case ~name:"ping" bare (fun () -> Ping) (function Ping -> Some () | _ -> None);
    case ~name:"stats" bare (fun () -> Stats)
      (function Stats -> Some () | _ -> None);
    case ~name:"shutdown" bare (fun () -> Shutdown)
      (function Shutdown -> Some () | _ -> None);
    case ~name:"detect" bench_query
      (fun (benchmark, query) -> Detect { benchmark; query })
      (function Detect { benchmark; query } -> Some (benchmark, query) | _ -> None);
    case ~name:"coverage" bench_query
      (fun (benchmark, query) -> Coverage { benchmark; query })
      (function
        | Coverage { benchmark; query } -> Some (benchmark, query) | _ -> None);
    case ~name:"verify"
      (obj (fun benchmark mode -> (benchmark, mode))
      |> field "benchmark" string fst |> field "mode" mode snd |> seal)
      (fun (benchmark, mode) -> Verify { benchmark; mode })
      (function Verify { benchmark; mode } -> Some (benchmark, mode) | _ -> None);
    case ~name:"lint"
      (obj Fun.id |> field "benchmark" (nullable string) Fun.id |> seal)
      (fun benchmark -> Lint { benchmark })
      (function Lint { benchmark } -> Some benchmark | _ -> None);
    case ~name:"corpus-sample"
      (obj (fun seed index size -> (seed, index, size))
      |> field "seed" int (fun (s, _, _) -> s)
      |> field "index" int (fun (_, i, _) -> i)
      |> field "size" (nullable int) (fun (_, _, z) -> z)
      |> seal)
      (fun (seed, index, size) -> Corpus_sample { seed; index; size })
      (function
        | Corpus_sample { seed; index; size } -> Some (seed, index, size)
        | _ -> None);
    case ~name:"timing"
      (obj (fun benchmark level uarch clock -> (benchmark, level, uarch, clock))
      |> field "benchmark" string (fun (b, _, _, _) -> b)
      |> field "level" level (fun (_, l, _, _) -> l)
      |> field "uarch" string (fun (_, _, u, _) -> u)
      |> field "clock" (nullable float) (fun (_, _, _, c) -> c)
      |> seal)
      (fun (benchmark, level, uarch, clock) ->
        Timing { benchmark; level; uarch; clock })
      (function
        | Timing { benchmark; level; uarch; clock } ->
            Some (benchmark, level, uarch, clock)
        | _ -> None) ]

let request_op req = match case_of request_cases req with Case c -> c.name

let encode_request ?(id = "") req =
  let op, body = encode_case request_cases req in
  let fields = match body with Json.Obj fs -> fs | _ -> [] in
  Json.to_string
    (Json.Obj
       (("api", Json.Int api_version) :: ("id", Json.String id)
       :: ("op", Json.String op) :: fields))

(* The id echoes on every answer to a readable object, so a client can
   match even a rejected frame to its request. *)
let decode_request line =
  match Json.of_string line with
  | Error e -> ("", Error (protocol_error ("malformed frame: " ^ e)))
  | Ok (Json.Obj _ as j) ->
      let str name = Option.bind (Json.member name j) Json.to_str in
      ( Option.value ~default:"" (str "id"),
        match (Option.bind (Json.member "api" j) Json.to_int, str "op") with
        | None, _ -> Error (unsupported_version None)
        | Some v, _ when v <> api_version -> Error (unsupported_version (Some v))
        | Some _, None -> Error (protocol_error "missing or non-string field \"op\"")
        | Some _, Some op -> (
            let fail fmt =
              Printf.ksprintf
                (fun m -> Error (protocol_error ~context:[ ("op", op) ] m))
                fmt
            in
            match decode_case request_cases op j with
            | Some (Ok req) -> Ok req
            | Some (Error e) -> fail "invalid %S request: %s" op e
            | None ->
                fail "unknown op %S (known: %s)" op
                  (String.concat ", "
                     (List.map (fun (Case c) -> c.name) request_cases))) )
  | Ok _ -> ("", Error (protocol_error "frame must be a JSON object"))

(* --- response frames ---------------------------------------------------------- *)

let cache_statuses =
  [ (Hit, "hit"); (Join, "join"); (Miss, "miss"); (Uncached, "none") ]

let cache_status_to_string c = List.assoc c cache_statuses

let cache_status_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) cache_statuses

let response =
  obj (fun api id ok cache result error ->
      if api <> api_version then
        Error (Printf.sprintf "unsupported api version %d" api)
      else
        match (ok, result, error) with
        | true, Some p, _ -> Ok { id; cache; body = Ok p }
        | false, _, Some d -> Ok { id; cache; body = Error d }
        | true, None, _ -> Error "missing field \"result\""
        | false, _, None -> Error "missing field \"error\"")
  |> field "api" int (fun _ -> api_version)
  |> field "id" string (fun r -> r.id)
  |> field "ok" bool (fun r -> Result.is_ok r.body)
  |> field "cache" (enum "cache status" cache_statuses) (fun r -> r.cache)
  |> field ~skip:Option.is_none "result" (nullable payload) (fun r ->
         Result.to_option r.body)
  |> field ~skip:Option.is_none "error" (nullable diag) (fun r ->
         match r.body with Error d -> Some d | Ok _ -> None)
  |> seal_checked

let encode_response r = Json.to_string (response.enc r)

let decode_response line =
  let* j =
    Result.map_error (fun e -> "malformed frame: " ^ e) (Json.of_string line)
  in
  response.dec j

(* --- the named encoders and decoders ------------------------------------------ *)

let query_to_json, query_of_json = (query.enc, query.dec)
let diag_to_json, diag_of_json = (diag.enc, diag.dec)
let detect_report_to_json, detect_report_of_json = (detect_report.enc, detect_report.dec)
let coverage_to_json, coverage_of_json = (coverage.enc, coverage.dec)
let findings_to_json, findings_of_json = (findings.enc, findings.dec)
let equiv_verdict_to_json, equiv_verdict_of_json = (equiv_verdict.enc, equiv_verdict.dec)
let timing_report_to_json, timing_report_of_json = (timing_report.enc, timing_report.dec)
let engine_stats_to_json, engine_stats_of_json = (engine_stats.enc, engine_stats.dec)
let stats_to_json, stats_of_json = (stats.enc, stats.dec)
let diag_report_to_json = diag_report.enc
let corpus_summary_to_json sp s = corpus_summary.enc (sp, s)
