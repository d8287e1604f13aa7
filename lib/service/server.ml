(* The analysis daemon.  One warm engine and a response memo that both
   keeps completed answers, as their encoded bytes, and coalesces
   overlapping questions; newline-delimited JSON frames over a
   Unix-domain stream socket, served by accept loops on Pool domains. *)

module Pipeline = Asipfb.Pipeline
module Timing = Asipfb.Timing
module Registry = Asipfb_bench_suite.Registry
module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Diag = Asipfb_diag.Diag
module Engine = Asipfb_engine.Engine
module Pool = Asipfb_engine.Pool
module Memo = Asipfb_util.Memo

(* The response memo keeps the [memo_capacity] most recently used
   responses, so a stream of fresh questions cannot grow the daemon
   without bound.  The bound sits well above the few hundred keys a
   session re-asking the suite's questions touches, so repeated
   questions keep hitting. *)
let memo_capacity = 1024

(* A request is refused past this many bytes without a newline; real
   requests are under 1 KB. *)
let max_frame_bytes = 1 lsl 20

(* The content keys of one registry benchmark, digested once per daemon
   instead of once per request. *)
type bench_keys = {
  source : string;
  verify_ir : string;
  sched : (Opt_level.t * string) list;
}

type t = {
  engine : Engine.t;
  log : (string -> unit) option;
  keys : (string, bench_keys) Hashtbl.t;  (* read-only after [create] *)
  memo : (string, string) Memo.t;  (* key -> the answer's result bytes *)
  stop : bool Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
  memo_hits : int Atomic.t;
  coalesced : int Atomic.t;
  started : float;
}

let registry_keys () =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (b : Benchmark.t) ->
      Hashtbl.replace table b.name
        {
          source = Engine.source_key b;
          verify_ir = Engine.verify_ir_key b;
          sched = List.map (fun l -> (l, Engine.sched_key b l)) Opt_level.all;
        })
    Registry.all;
  table

let create ~engine ?log () =
  {
    engine;
    log;
    keys = registry_keys ();
    memo = Memo.create ~capacity:memo_capacity ();
    stop = Atomic.make false;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    memo_hits = Atomic.make 0;
    coalesced = Atomic.make 0;
    started = Unix.gettimeofday ();
  }

let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let service_stats t =
  {
    Api.requests = Atomic.get t.requests;
    errors = Atomic.get t.errors;
    memo_hits = Atomic.get t.memo_hits;
    coalesced = Atomic.get t.coalesced;
    uptime_s = Unix.gettimeofday () -. t.started;
  }

let memo_size t = Memo.size t.memo

(* --- answers ------------------------------------------------------------- *)

(* A request's own faults (an unknown benchmark, an unknown machine
   preset or a non-positive clock) raise the structured error the wire
   carries, like a failing analysis. *)
let refuse ~stage ~context message =
  raise (Diag.Diag_error (Diag.make ~stage ~context message))

let unknown_benchmark name =
  refuse ~stage:Diag.Driver ~context:[ ("benchmark", name) ]
    (Registry.unknown_message name)

let find_benchmark name =
  match Registry.find_opt name with
  | Some b -> b
  | None -> unknown_benchmark name

let lint_benchmarks = function
  | None -> Registry.all
  | Some name -> [ find_benchmark name ]

let find_uarch ?clock name =
  match Timing.uarch_of ?clock name with
  | Ok u -> u
  | Error msg ->
      refuse ~stage:Diag.Selection
        ~context:[ ("kind", "unknown-uarch"); ("uarch", name) ] msg

let answer engine req =
  let analyze ?verify name =
    Engine.analyze engine ?verify (find_benchmark name)
  in
  let timing benchmark level uarch clock area =
    let uarch = find_uarch ?clock uarch in
    Api.Timing_result
      (Timing.of_analysis ~uarch ?area (analyze benchmark) level)
  in
  match req with
  | Api.Detect { benchmark; query } ->
      Api.Detect_result (Pipeline.detect_report (analyze benchmark) query)
  | Api.Coverage { benchmark; query } ->
      Api.Coverage_result (Pipeline.coverage (analyze benchmark) query)
  | Api.Verify { benchmark; mode } -> (
      let a = analyze ~verify:(mode :> Engine.verify_mode) benchmark in
      match mode with
      | `Ir | `Full -> Api.Findings a.verify
      | `Tv ->
          let tagged tag =
            List.length
              (List.filter
                 (fun (d : Diag.t) ->
                   List.assoc_opt "check" d.context = Some tag)
                 a.verify)
          in
          Api.Tv_result
            {
              Api.ev_benchmark = a.benchmark.name;
              ev_levels = List.length Asipfb_sched.Opt_level.all;
              ev_refinement_failures = tagged "refinement";
              ev_counterexamples = tagged "counterexample";
              ev_findings = a.verify;
            })
  | Api.Lint { benchmark } ->
      let r =
        Pipeline.run_suite ~engine ~verify:`Tv
          ~benchmarks:(lint_benchmarks benchmark) ~on_error:`Raise ()
      in
      Api.Findings
        (List.concat_map (fun (a : Pipeline.analysis) -> a.verify) r.analyses)
  | Api.Timing { benchmark; level; uarch; clock } ->
      timing benchmark level uarch clock None
  | Api.Timing_area { benchmark; level; uarch; clock; area } ->
      timing benchmark level uarch clock (Some area)
  | Api.Corpus_sample { seed; index; size } ->
      let source = Asipfb_corpus.Gen.source ~seed ?size ~index () in
      let size =
        match size with
        | Some s -> max 3 s
        | None -> Asipfb_corpus.Gen.default_size
      in
      Api.Sample
        { seed; index; size; name = Asipfb_corpus.Gen.name ~seed ~index;
          source }
  | Api.Ping | Api.Stats | Api.Shutdown ->
      invalid_arg
        (Printf.sprintf "Server.answer: %S is answered from the daemon's state"
           (Api.request_op req))

(* --- request dispatch ---------------------------------------------------- *)

(* Analysis requests are keyed by the engine's content-digest scheme:
   the benchmark's source key (and, for level-dependent questions, its
   sched key) plus the query parameters.  A source or schema change
   therefore changes the key — exactly the engine cache's invalidation
   story, lifted to whole responses.  Computing a key checks the
   request the way {!answer} does, in the same order, so a refused
   request is never memoized. *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let query_parts (q : Pipeline.Query.t) =
  [
    string_of_int q.length;
    (match q.min_freq with Some f -> Printf.sprintf "%h" f | None -> "-");
    (match q.budget with Some b -> string_of_int b | None -> "-");
  ]

let bench_keys t name =
  match Hashtbl.find_opt t.keys name with
  | Some k -> k
  | None -> unknown_benchmark name

let sched_key t name level = List.assoc level (bench_keys t name).sched

(* The area joins the key only when the request carries one, so every
   key of a request without it is unchanged. *)
let timing_key t benchmark level uarch clock area =
  ignore (find_uarch ?clock uarch);
  let k = bench_keys t benchmark in
  digest
    ([ "timing"; k.source; sched_key t benchmark level; uarch;
       (match clock with Some c -> Printf.sprintf "%h" c | None -> "-") ]
    @ Option.to_list (Option.map (Printf.sprintf "%h") area))

let request_key t req =
  match req with
  | Api.Detect { benchmark; query = q } | Api.Coverage { benchmark; query = q }
    ->
      let k = bench_keys t benchmark in
      Some
        (digest
           ([ Api.request_op req; k.source; sched_key t benchmark q.level ]
           @ query_parts q))
  | Api.Verify { benchmark; mode } ->
      let k = bench_keys t benchmark in
      Some
        (digest
           [ "verify"; k.verify_ir; k.source;
             (match mode with `Ir -> "ir" | `Full -> "full" | `Tv -> "tv") ])
  | Api.Lint { benchmark } ->
      Some
        (digest
           ("lint"
           :: List.map
                (fun (b : Benchmark.t) -> (bench_keys t b.name).source)
                (lint_benchmarks benchmark)))
  | Api.Timing { benchmark; level; uarch; clock } ->
      Some (timing_key t benchmark level uarch clock None)
  | Api.Timing_area { benchmark; level; uarch; clock; area } ->
      Some (timing_key t benchmark level uarch clock (Some area))
  | Api.Corpus_sample _ | Api.Ping | Api.Stats | Api.Shutdown -> None

(* The memo keeps each answer's encoded result bytes, so a hit is
   served without re-encoding.  A raise is not kept in the memo, so a
   failed question is asked afresh next time. *)
let serve_cached t ~key compute =
  match Memo.find_or_run t.memo ~key compute with
  | bytes, Memo.Hit ->
      Atomic.incr t.memo_hits;
      (Api.Hit, Ok bytes)
  | bytes, Memo.Joined ->
      Atomic.incr t.coalesced;
      (Api.Join, Ok bytes)
  | bytes, Memo.Led -> (Api.Miss, Ok bytes)
  | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn))

(* The daemon answers ping, stats and shutdown from its own state and
   every other op with {!answer}, keyed ones through the memo; an
   answer is its result bytes.  A refused request and a failed unkeyed
   answer raise out of here into {!handle_line}, which turns them into
   error responses. *)
let dispatch t req : Api.cache_status * (string, Diag.t) result =
  let uncached p = (Api.Uncached, Ok (Api.encode_payload p)) in
  match req with
  | Api.Ping -> uncached Api.Pong
  | Api.Shutdown ->
      request_stop t;
      uncached Api.Stopping
  | Api.Stats ->
      uncached
        (Api.Stats_result
           { engine = Engine.stats t.engine; service = service_stats t })
  | req -> (
      match request_key t req with
      | Some key ->
          serve_cached t ~key (fun () ->
              Api.encode_payload (answer t.engine req))
      | None -> uncached (answer t.engine req))

let log_line t op cache outcome =
  Option.iter
    (fun log ->
      log
        (Printf.sprintf "%s cache=%s %s" op
           (Api.cache_status_to_string cache)
           (match outcome with
           | Ok _ -> "ok"
           | Error (d : Diag.t) -> "error: " ^ d.message)))
    t.log

(* A successful answer is spliced around its result bytes; an error is
   encoded whole. *)
let frame ~id cache = function
  | Ok bytes -> Api.splice_response ~id ~cache bytes
  | Error diag -> Api.encode_response { Api.id; cache; body = Error diag }

let handle_line t line =
  Atomic.incr t.requests;
  let id, decoded = Api.decode_request line in
  let op, cache, body =
    match decoded with
    | Error diag -> ("<malformed>", Api.Uncached, Error diag)
    | Ok req ->
        let cache, body =
          match dispatch t req with
          | r -> r
          | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn))
        in
        (Api.request_op req, cache, body)
  in
  if Result.is_error body then Atomic.incr t.errors;
  log_line t op cache body;
  frame ~id cache body

(* The one answer to a connection whose unterminated frame outgrew
   [max_frame_bytes]; the connection closes after it. *)
let oversized_frame t =
  Atomic.incr t.requests;
  Atomic.incr t.errors;
  let body =
    Error
      (Api.protocol_error
         ~context:[ ("limit", string_of_int max_frame_bytes) ]
         (Printf.sprintf "frame exceeds %d bytes; closing the connection"
            max_frame_bytes))
  in
  log_line t "<oversized>" Api.Uncached body;
  frame ~id:"" Api.Uncached body

(* --- transport ----------------------------------------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

(* A reply goes out with its newline from the connection's reusable
   output buffer: one blit, no allocation once the buffer has grown. *)
let send_line out fd line =
  let n = String.length line in
  if Bytes.length !out <= n then
    out := Bytes.create (max (n + 1) (2 * Bytes.length !out));
  Bytes.blit_string line 0 !out 0 n;
  Bytes.set !out n '\n';
  write_all fd !out 0 (n + 1)

(* A connection's unanswered input: bytes [start, len) of [buf], with
   no newline in [start, scan). *)
type inbox = {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable scan : int;
}

let chunk_size = 4096

(* Room for one more read at the end of [buf]: slide the unanswered
   bytes to the front, and grow only if they still leave no room. *)
let make_room ib =
  if Bytes.length ib.buf - ib.len < chunk_size then begin
    let live = ib.len - ib.start in
    let buf =
      if Bytes.length ib.buf - live < chunk_size then
        Bytes.create (2 * Bytes.length ib.buf)
      else ib.buf
    in
    Bytes.blit ib.buf ib.start buf 0 live;
    ib.buf <- buf;
    ib.scan <- ib.scan - ib.start;
    ib.start <- 0;
    ib.len <- live
  end

let rec newline_from ib i =
  if i >= ib.len then None
  else if Bytes.unsafe_get ib.buf i = '\n' then Some i
  else newline_from ib (i + 1)

(* One connection, owned by one worker: poll for input every 200ms so a
   stop request (shutdown frame on another connection, or SIGINT) is
   honoured even while a client sits idle.  A frame longer than
   [max_frame_bytes] gets one protocol-error reply and the connection
   closes; other connections are not affected. *)
let serve_conn t fd =
  let ib = { buf = Bytes.create chunk_size; start = 0; len = 0; scan = 0 } in
  let out = ref (Bytes.create 1024) in
  (* Answer every complete line; [false] once a frame is oversized. *)
  let rec drain () =
    match newline_from ib ib.scan with
    | Some i when i - ib.start > max_frame_bytes -> false
    | Some i ->
        let line = Bytes.sub_string ib.buf ib.start (i - ib.start) in
        ib.start <- i + 1;
        ib.scan <- i + 1;
        if String.trim line <> "" then send_line out fd (handle_line t line);
        drain ()
    | None ->
        if ib.start = ib.len then begin
          ib.start <- 0;
          ib.len <- 0
        end;
        ib.scan <- ib.len;
        ib.len - ib.start <= max_frame_bytes
  in
  let rec loop () =
    if not (stopping t) then
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          make_room ib;
          match Unix.read fd ib.buf ib.len chunk_size with
          | 0 -> () (* EOF *)
          | n ->
              ib.len <- ib.len + n;
              if drain () then loop ()
              else send_line out fd (oversized_frame t)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop ()
      with Unix.Unix_error _ -> () (* client went away mid-frame *))

(* Every worker selects on the shared non-blocking listen socket and
   races to accept; the losers see EAGAIN and go back to polling.  The
   0.2s timeout bounds how long a stop request waits on idle workers. *)
let accept_loop t lfd =
  let rec loop () =
    if not (stopping t) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true lfd with
          | fd, _ -> serve_conn t fd
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* A pre-existing socket path is only taken over when it is provably
   stale: it must be a socket (never delete a user's regular file) and
   nobody may be accepting on it. *)
let probe_socket socket =
  match (Unix.stat socket).st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
  | Unix.S_SOCK -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> `Live
          | exception Unix.Unix_error _ -> `Stale))
  | _ -> `Not_a_socket
  | exception Unix.Unix_error (_, _, _) -> `Not_a_socket

let serve t ?(on_ready = fun () -> ()) ~socket ~workers () =
  match probe_socket socket with
  | `Live ->
      Error
        (Printf.sprintf "socket %s is already served by a live daemon" socket)
  | `Not_a_socket ->
      Error
        (Printf.sprintf "refusing to replace %s: not a socket" socket)
  | (`Absent | `Stale) as state -> (
      (match state with
      | `Stale -> ( try Sys.remove socket with Sys_error _ -> ())
      | `Absent -> ());
      match
        let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock lfd;
        Unix.bind lfd (Unix.ADDR_UNIX socket);
        Unix.listen lfd 64;
        lfd
      with
      | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot bind %s: %s" socket
               (Unix.error_message err))
      | lfd ->
          let workers = max 1 workers in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close lfd with Unix.Unix_error _ -> ());
              try Sys.remove socket with Sys_error _ -> ())
            (fun () ->
              on_ready ();
              ignore
                (Pool.run ~jobs:workers
                   (Array.init workers (fun _ () -> accept_loop t lfd)));
              Ok ()))
