(** The analysis daemon: a Unix-domain-socket server holding one warm
    {!Asipfb_engine.Engine.t} across requests.

    Transport is newline-delimited JSON frames ({!Api}): one request per
    line in, one response per line out, on a stream socket.  Concurrent
    clients are handled by a fixed set of accept loops running on OCaml 5
    domains via the engine's own {!Asipfb_engine.Pool}; each connection
    is owned by one worker for its lifetime.

    One response memo ({!Asipfb_util.Memo}) on top of the engine's
    keyed results keeps repeated questions cheap.  An analysis request
    is keyed by its content; the memo keeps the {!memo_capacity} most
    recently used answers, each as its encoded [result] bytes, and runs
    each key once across overlapping askers:

    - a question answered before is served without touching the engine
      or the encoder — its frame is the [api]/[id]/[ok]/[cache] envelope
      spliced around the stored bytes ({!Api.splice_response}) — and
      reported [cache:"hit"];
    - N clients asking an identical question while it is being computed
      share one computation — the asker that ran it reports
      [cache:"miss"], the others [cache:"join"];
    - a failed answer is not kept: its askers get the error
      ([cache:"uncached"]) and the next ask computes afresh.

    Content keys follow the engine's digest scheme
    ({!Asipfb_engine.Engine.source_key} / [sched_key], digested once per
    registry benchmark when the daemon starts), so "identical request"
    means identical benchmark content and query parameters.

    The daemon never crashes on client input: malformed frames, unknown
    API versions, unknown benchmarks, and analysis failures all produce
    structured error responses ({!Asipfb_diag.Diag.t} on the wire).  A
    frame longer than {!max_frame_bytes} gets one [protocol-error]
    response and its connection is closed; other clients keep being
    served. *)

type t

val answer : Asipfb_engine.Engine.t -> Api.request -> Api.payload
(** The one computation behind every analysis payload: [detect],
    [coverage], [verify], [lint], [timing] and [corpus-sample].  The
    daemon serves those ops with it, through the memo; the offline
    [detect]/[coverage]/[design --json], [lint] and [equiv --uarch] call
    it in-process, so their [--json] output is the daemon's payload.

    @raise Asipfb_diag.Diag.Diag_error for an unknown benchmark (stage
      [Driver], context [benchmark]), or an unknown machine preset or a
      non-positive clock (stage [Selection], [kind=unknown-uarch],
      checked before the benchmark).
    @raise exn whatever the analysis raises
      ({!Asipfb.Pipeline.diag_of_exn} classifies it).
    @raise Invalid_argument for [ping], [stats] and [shutdown], which
      the daemon answers from its own state. *)

val create :
  engine:Asipfb_engine.Engine.t -> ?log:(string -> unit) -> unit -> t
(** A serving state around a warm engine.  [log] observes one line per
    handled frame (op, cache status, outcome) — the CLI's [--verbose];
    without it no line is formatted. *)

val handle_line : t -> string -> string
(** Answer one frame: decode, dispatch ({!answer}, through the memo for
    keyed requests), encode.  Total — any failure, including an
    unrecognised exception from an analysis, becomes an [ok:false]
    response frame.  Exposed directly (without a socket) for protocol
    tests; the transport loop calls exactly this. *)

val request_stop : t -> unit
(** Ask every accept loop to wind down (the SIGINT hook).  Idempotent. *)

val stopping : t -> bool

val service_stats : t -> Api.service_stats

val memo_capacity : int
(** Most completed answers the memo holds (1024); inserting past it
    evicts the least recently used one, which a repeat of its question
    then recomputes. *)

val max_frame_bytes : int
(** Longest frame a connection may send (1 MiB; requests are under
    1 KB).  Past it, with no newline yet, the connection gets one
    [protocol-error] frame (context [limit]) and is closed. *)

val memo_size : t -> int
(** Completed answers the memo holds now. *)

val serve :
  t ->
  ?on_ready:(unit -> unit) ->
  socket:string ->
  workers:int ->
  unit ->
  (unit, string) result
(** Bind [socket] and serve until a [shutdown] request or
    {!request_stop}; [on_ready] fires once the socket is bound and
    listening (the CLI's startup line), never on a refused start.  At
    most [max 1 workers] connections are served concurrently (excess
    connections queue in the listen backlog).

    Refuses to start when [socket] is already served by a live daemon
    or exists as a non-socket file ([Error] with a one-line message —
    the CLI turns this into exit 1); a {e stale} socket file left by a
    killed daemon is removed and taken over.  The socket file is
    unlinked on every return path, so no wedge survives shutdown or
    SIGINT. *)
