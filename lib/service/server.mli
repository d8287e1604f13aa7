(** The analysis daemon: a Unix-domain-socket server holding one warm
    {!Asipfb_engine.Engine.t} across requests.

    Transport is newline-delimited JSON frames ({!Api}): one request per
    line in, one response per line out, on a stream socket.  Concurrent
    clients are handled by a fixed set of accept loops running on OCaml 5
    domains via the engine's own {!Asipfb_engine.Pool}; each connection
    is owned by one worker for its lifetime.

    Two layers keep repeated questions cheap on top of the engine's
    content-keyed analysis cache:

    - a {e completed-response memo}: an analysis request whose content
      key was answered before is served without touching the engine and
      reported [cache:"hit"].  It keeps the {!memo_capacity} most
      recently used responses;
    - {e in-flight coalescing} ({!Asipfb_engine.Inflight}): N clients
      asking an identical question while it is being computed share one
      computation — the leader reports [cache:"miss"], the others
      [cache:"join"].

    Content keys follow the engine's digest scheme
    ({!Asipfb_engine.Engine.source_key} / [sched_key]), so "identical
    request" means identical benchmark content and query parameters.

    The daemon never crashes on client input: malformed frames, unknown
    API versions, unknown benchmarks, and analysis failures all produce
    structured error responses ({!Asipfb_diag.Diag.t} on the wire). *)

type t

val create :
  engine:Asipfb_engine.Engine.t -> ?log:(string -> unit) -> unit -> t
(** A serving state around a warm engine.  [log] observes one line per
    handled frame (op, cache status, outcome) — the CLI's [--verbose]. *)

val handle_line : t -> string -> string
(** Answer one frame: decode, dispatch, encode.  Total — any failure,
    including an unrecognised exception from an analysis, becomes an
    [ok:false] response frame.  Exposed directly (without a socket) for
    protocol tests; the transport loop calls exactly this. *)

val request_stop : t -> unit
(** Ask every accept loop to wind down (the SIGINT hook).  Idempotent. *)

val stopping : t -> bool

val service_stats : t -> Api.service_stats

val memo_capacity : int
(** Most completed responses the memo holds (1024); inserting past it
    evicts the least recently used one, which a repeat of its question
    then recomputes. *)

val memo_size : t -> int
(** Completed responses the memo holds now. *)

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
