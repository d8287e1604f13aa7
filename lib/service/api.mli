(** The versioned wire API of the analysis service.

    One request/response protocol, spoken over newline-delimited JSON
    frames (DESIGN §14).  Every type that crosses the boundary —
    {!Asipfb.Pipeline.Query.t}, detection and coverage results, verifier
    findings ({!Asipfb_diag.Diag.t}), timing reports, engine statistics,
    generated-corpus samples — is described once, as a codec built field
    by field in wire order; the encoder and the total decoder below both
    derive from that one description.  Requests (keyed by [op]) and
    payloads (keyed by [kind]) each have one case table from which the
    names, the encoding, the decoding and the unknown-name errors
    derive.  Nothing on the wire is [Marshal]ed: a frame is plain JSON a
    foreign client can produce and consume, and every frame carries the
    protocol version ([{"api":1,...}]) so an incompatible client gets a
    structured error instead of a misparse.

    The same encoders back the offline CLI's machine-readable output
    ([detect --json], [coverage --json], [lint --json], [corpus
    --json], [--diag-json]), so daemon responses and offline output
    share one schema and are byte-identical for identical queries —
    the property [scripts/serve_smoke.sh] asserts.  Every encoded
    top-level object carries [schema_version]. *)

val api_version : int
(** [1] — the frame envelope version.  A request with any other value
    is answered with a structured [unsupported-api-version] error. *)

val schema_version : int
(** [3] — the version stamped on every encoded result object (offline
    and on the wire).  v2 added the translation-validation surface
    (verify mode ["tv"], the ["equiv-verdict"] payload); v3 added the
    microarchitecture-aware timing surface (the ["timing"] op and the
    ["timing-report"] payload).  Decoders do not reject older versions:
    a v1/v2 frame can only carry the kinds of its era, and those decode
    unchanged. *)

(** {1 Requests} *)

type request =
  | Ping  (** Liveness probe. *)
  | Stats  (** Engine cache/supervision counters + service counters. *)
  | Shutdown  (** Ask the daemon to stop accepting and exit cleanly. *)
  | Detect of { benchmark : string; query : Asipfb.Pipeline.Query.t }
  | Coverage of { benchmark : string; query : Asipfb.Pipeline.Query.t }
      (** Only [query.level] and [query.budget] are meaningful (coverage
          explores its own length set), mirroring
          {!Asipfb.Pipeline.coverage}. *)
  | Verify of { benchmark : string; mode : [ `Ir | `Full | `Tv ] }
      (** [`Tv] runs the full static checkers plus
          {!Asipfb_verify.Equiv}'s semantic refinement proof per level,
          answered with a {!Tv_result}. *)
  | Lint of { benchmark : string option }
      (** [None] lints the whole Table 1 suite, like the CLI. *)
  | Corpus_sample of { seed : int; index : int; size : int option }
      (** Regenerate one corpus program's source (pure, uncached). *)
  | Timing of { benchmark : string; level : Asipfb_sched.Opt_level.t;
                uarch : string; clock : float option }
      (** The timing-closure report under machine description [uarch]
          (a {!Asipfb_asip.Uarch} preset name), with [clock] optionally
          overriding the preset's clock period.  Answered with a
          {!Timing_result}. *)

val request_op : request -> string
(** The wire [op] name, e.g. ["corpus-sample"]. *)

(** {1 Responses} *)

type cache_status =
  | Hit  (** Served from the daemon's completed-response memo. *)
  | Join  (** Coalesced with an identical in-flight computation. *)
  | Miss  (** Computed fresh by this request. *)
  | Uncached  (** The operation has no cacheable result (ping, stats…). *)

val cache_status_to_string : cache_status -> string
val cache_status_of_string : string -> cache_status option

type service_stats = {
  requests : int;  (** Frames answered (including errors). *)
  errors : int;  (** Frames answered with [ok:false]. *)
  memo_hits : int;  (** Responses served from the completed memo. *)
  coalesced : int;  (** Responses that joined an in-flight computation. *)
  uptime_s : float;
}

type stats_payload = {
  engine : Asipfb_engine.Engine.stats;
  service : service_stats;
}

type equiv_verdict = {
  ev_benchmark : string;
  ev_levels : int;  (** Optimization levels proved (suite runs 3). *)
  ev_refinement_failures : int;
      (** Findings tagged [check=refinement] — discharge failures. *)
  ev_counterexamples : int;
      (** Findings tagged [check=counterexample] — concrete divergences. *)
  ev_findings : Asipfb_diag.Diag.t list;
      (** The full finding list (IR checks + refinement). *)
}
(** The wire verdict of a [`Tv] verify: a zero
    [ev_refinement_failures] with empty [ev_findings] is a proof that
    every level's schedule refines the original. *)

type payload =
  | Pong
  | Stopping
  | Detect_result of Asipfb_chain.Detect.report
  | Coverage_result of Asipfb_chain.Coverage.result
  | Findings of Asipfb_diag.Diag.t list
  | Stats_result of stats_payload
  | Tv_result of equiv_verdict  (** Answer to a [`Tv] verify. *)
  | Sample of { seed : int; index : int; size : int; name : string;
                source : string }
  | Timing_result of Asipfb.Timing.report
      (** Answer to a [Timing] request: estimated vs. measured speedup,
          per-chain critical path and slack, clock-violation rejections. *)

type response = {
  id : string;  (** Echo of the request's [id] ([""] if absent). *)
  cache : cache_status;
  body : (payload, Asipfb_diag.Diag.t) result;
}

(** {1 Frame encoding} *)

val encode_request : ?id:string -> request -> string
(** One frame, no trailing newline (the transport adds it). *)

val decode_request : string -> string * (request, Asipfb_diag.Diag.t) result
(** The frame's [id] together with the request or a structured protocol
    diagnostic: malformed JSON, missing/unsupported [api], unknown [op],
    missing or ill-typed fields.  The [id] is echoed whenever the frame
    is a JSON object, so even a rejected request can be matched to its
    answer; it is [""] only when the frame is not a readable object (or
    carries no string [id]).  Total — never raises. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result
(** Client-side decode; [Error] describes the malformation. *)

(** {1 Result-object encoders/decoders}

    These produce the [result] member of a response frame and, equally,
    the offline CLI's [--json] output.  Each top-level object carries
    ["kind"] and ["schema_version"]. *)

val query_to_json : Asipfb.Pipeline.Query.t -> Json.t
val query_of_json : Json.t -> (Asipfb.Pipeline.Query.t, string) result

val diag_to_json : Asipfb_diag.Diag.t -> Json.t
(** The one JSON form of a diagnostic: [severity], [stage], then [file],
    [line]/[col] and [context] only when present, with [message] before
    [context]. *)

val diag_of_json : Json.t -> (Asipfb_diag.Diag.t, string) result

val detect_report_to_json : Asipfb_chain.Detect.report -> Json.t
val detect_report_of_json :
  Json.t -> (Asipfb_chain.Detect.report, string) result

val coverage_to_json : Asipfb_chain.Coverage.result -> Json.t
val coverage_of_json : Json.t -> (Asipfb_chain.Coverage.result, string) result

val findings_to_json : Asipfb_diag.Diag.t list -> Json.t
val findings_of_json : Json.t -> (Asipfb_diag.Diag.t list, string) result

val equiv_verdict_to_json : equiv_verdict -> Json.t
val equiv_verdict_of_json : Json.t -> (equiv_verdict, string) result

val timing_report_to_json : Asipfb.Timing.report -> Json.t
val timing_report_of_json : Json.t -> (Asipfb.Timing.report, string) result

val engine_stats_to_json : Asipfb_engine.Engine.stats -> Json.t
val engine_stats_of_json :
  Json.t -> (Asipfb_engine.Engine.stats, string) result

val stats_to_json : stats_payload -> Json.t
val stats_of_json : Json.t -> (stats_payload, string) result

val diag_report_to_json : Asipfb_diag.Diag.t list -> Json.t
(** The [--diag-json] file envelope:
    [{"kind":"diagnostics","schema_version":3,"diagnostics":[…]}]. *)

val corpus_summary_to_json :
  Asipfb_corpus.Corpus.spec -> Asipfb_corpus.Corpus.summary -> Json.t
(** The [corpus --json] summary (offline only; not a wire payload). *)

(** {1 Protocol diagnostics} *)

val protocol_error : ?context:(string * string) list -> string ->
  Asipfb_diag.Diag.t
(** A stage-[Driver] error tagged [kind=protocol-error]. *)

val unsupported_version : int option -> Asipfb_diag.Diag.t
(** Tagged [kind=unsupported-api-version] with the offered and
    supported versions in context. *)
