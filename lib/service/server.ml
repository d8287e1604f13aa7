(* The analysis daemon.  One warm engine and a response memo that both
   keeps completed responses and coalesces overlapping questions;
   newline-delimited JSON frames over a Unix-domain stream socket, served
   by accept loops on Pool domains. *)

module Pipeline = Asipfb.Pipeline
module Timing = Asipfb.Timing
module Registry = Asipfb_bench_suite.Registry
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

type t = {
  engine : Engine.t;
  log : string -> unit;
  memo : (string, Api.payload) Memo.t;
  stop : bool Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
  memo_hits : int Atomic.t;
  coalesced : int Atomic.t;
  started : float;
}

let create ~engine ?(log = fun _ -> ()) () =
  {
    engine;
    log;
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

let find_benchmark name =
  match Registry.find_opt name with
  | Some b -> b
  | None ->
      refuse ~stage:Diag.Driver ~context:[ ("benchmark", name) ]
        (Registry.unknown_message name)

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

(* The area joins the key only when the request carries one, so every
   key of a request without it is unchanged. *)
let timing_key benchmark level uarch clock area =
  ignore (find_uarch ?clock uarch);
  let b = find_benchmark benchmark in
  digest
    ([ "timing"; Engine.source_key b; Engine.sched_key b level; uarch;
       (match clock with Some c -> Printf.sprintf "%h" c | None -> "-") ]
    @ Option.to_list (Option.map (Printf.sprintf "%h") area))

let request_key req =
  match req with
  | Api.Detect { benchmark; query = q } | Api.Coverage { benchmark; query = q }
    ->
      let b = find_benchmark benchmark in
      Some
        (digest
           ([ Api.request_op req; Engine.source_key b;
              Engine.sched_key b q.level ]
           @ query_parts q))
  | Api.Verify { benchmark; mode } ->
      let b = find_benchmark benchmark in
      Some
        (digest
           [ "verify"; Engine.verify_ir_key b; Engine.source_key b;
             (match mode with `Ir -> "ir" | `Full -> "full" | `Tv -> "tv") ])
  | Api.Lint { benchmark } ->
      Some
        (digest
           ("lint" :: List.map Engine.source_key (lint_benchmarks benchmark)))
  | Api.Timing { benchmark; level; uarch; clock } ->
      Some (timing_key benchmark level uarch clock None)
  | Api.Timing_area { benchmark; level; uarch; clock; area } ->
      Some (timing_key benchmark level uarch clock (Some area))
  | Api.Corpus_sample _ | Api.Ping | Api.Stats | Api.Shutdown -> None

(* A raise is not kept in the memo, so a failed question is asked
   afresh next time. *)
let serve_cached t ~key compute =
  match Memo.find_or_run t.memo ~key compute with
  | payload, Memo.Hit ->
      Atomic.incr t.memo_hits;
      (Api.Hit, Ok payload)
  | payload, Memo.Joined ->
      Atomic.incr t.coalesced;
      (Api.Join, Ok payload)
  | payload, Memo.Led -> (Api.Miss, Ok payload)
  | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn))

(* The daemon answers ping, stats and shutdown from its own state and
   every other op with {!answer}, keyed ones through the memo.  A
   refused request and a failed unkeyed answer raise out of here into
   {!handle_line}, which turns them into error responses. *)
let dispatch t req : Api.cache_status * (Api.payload, Diag.t) result =
  match req with
  | Api.Ping -> (Api.Uncached, Ok Api.Pong)
  | Api.Shutdown ->
      request_stop t;
      (Api.Uncached, Ok Api.Stopping)
  | Api.Stats ->
      ( Api.Uncached,
        Ok
          (Api.Stats_result
             { engine = Engine.stats t.engine; service = service_stats t })
      )
  | req -> (
      match request_key req with
      | Some key -> serve_cached t ~key (fun () -> answer t.engine req)
      | None -> (Api.Uncached, Ok (answer t.engine req)))

let handle_line t line =
  Atomic.incr t.requests;
  let id, decoded = Api.decode_request line in
  let op, response =
    match decoded with
    | Error diag ->
        ("<malformed>", { Api.id; cache = Api.Uncached; body = Error diag })
    | Ok req ->
        let cache, body =
          match dispatch t req with
          | r -> r
          | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn))
        in
        (Api.request_op req, { Api.id; cache; body })
  in
  (match response.body with
  | Error _ -> Atomic.incr t.errors
  | Ok _ -> ());
  t.log
    (Printf.sprintf "%s cache=%s %s" op
       (Api.cache_status_to_string response.cache)
       (match response.body with
       | Ok _ -> "ok"
       | Error d -> "error: " ^ d.message));
  Api.encode_response response

(* --- transport ----------------------------------------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

let send_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  write_all fd bytes 0 (Bytes.length bytes)

(* One connection, owned by one worker: poll for input every 200ms so a
   stop request (shutdown frame on another connection, or SIGINT) is
   honoured even while a client sits idle. *)
let serve_conn t fd =
  let pending = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let drain_lines () =
    let rec go () =
      let s = Buffer.contents pending in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear pending;
          Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
          if String.trim line <> "" then send_line fd (handle_line t line);
          go ()
    in
    go ()
  in
  let rec loop () =
    if not (stopping t) then
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> () (* EOF *)
          | n ->
              Buffer.add_subbytes pending chunk 0 n;
              drain_lines ();
              loop ()
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
