(* The analysis daemon.  One warm engine, a completed-response memo, and
   in-flight coalescing; newline-delimited JSON frames over a Unix-domain
   stream socket, served by accept loops on Pool domains. *)

module Pipeline = Asipfb.Pipeline
module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Diag = Asipfb_diag.Diag
module Engine = Asipfb_engine.Engine
module Pool = Asipfb_engine.Pool
module Inflight = Asipfb_engine.Inflight

(* The completed-response memo is a least-recently-used table of at most
   [memo_capacity] responses, so a stream of fresh questions cannot grow
   the daemon without bound.  The bound sits well above the few hundred
   keys a session re-asking the suite's questions touches, so repeated
   questions keep hitting. *)
let memo_capacity = 1024

type memo_entry = { payload : Api.payload; mutable used : int }

type t = {
  engine : Engine.t;
  log : string -> unit;
  inflight : Api.payload Inflight.t;
  memo : (string, memo_entry) Hashtbl.t;
  memo_mu : Mutex.t;
  mutable memo_tick : int;  (* recency clock, guarded by [memo_mu] *)
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
    inflight = Inflight.create ();
    memo = Hashtbl.create 64;
    memo_mu = Mutex.create ();
    memo_tick = 0;
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

(* --- request dispatch ---------------------------------------------------- *)

let memo_size t =
  Mutex.lock t.memo_mu;
  let n = Hashtbl.length t.memo in
  Mutex.unlock t.memo_mu;
  n

let tick t =
  t.memo_tick <- t.memo_tick + 1;
  t.memo_tick

let memo_find t key =
  Mutex.lock t.memo_mu;
  let v =
    Option.map
      (fun e ->
        e.used <- tick t;
        e.payload)
      (Hashtbl.find_opt t.memo key)
  in
  Mutex.unlock t.memo_mu;
  v

(* Inserting past the capacity evicts the least recently used entry: a
   linear scan, paid once per computed response, never on a hit. *)
let memo_add t key payload =
  Mutex.lock t.memo_mu;
  Hashtbl.replace t.memo key { payload; used = tick t };
  if Hashtbl.length t.memo > memo_capacity then begin
    let oldest =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, used) when used <= e.used -> acc
          | _ -> Some (k, e.used))
        t.memo None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove t.memo k) oldest
  end;
  Mutex.unlock t.memo_mu

(* Analysis requests are keyed by the engine's content-digest scheme:
   the benchmark's source key (and, for level-dependent questions, its
   sched key) plus the query parameters.  A source or schema change
   therefore changes the key — exactly the engine cache's invalidation
   story, lifted to whole responses. *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let query_parts (q : Pipeline.Query.t) =
  [
    string_of_int q.length;
    (match q.min_freq with Some f -> Printf.sprintf "%h" f | None -> "-");
    (match q.budget with Some b -> string_of_int b | None -> "-");
  ]

let request_key (b : Benchmark.t) req =
  match req with
  | Api.Detect { query = q; _ } ->
      Some
        (digest
           ([ "detect"; Engine.source_key b; Engine.sched_key b q.level ]
           @ query_parts q))
  | Api.Coverage { query = q; _ } ->
      Some
        (digest
           ([ "coverage"; Engine.source_key b; Engine.sched_key b q.level ]
           @ query_parts q))
  | Api.Verify { mode; _ } ->
      Some
        (digest
           [ "verify"; Engine.verify_ir_key b; Engine.source_key b;
             (match mode with `Ir -> "ir" | `Full -> "full" | `Tv -> "tv") ])
  | Api.Timing { level; uarch; clock; _ } ->
      Some
        (digest
           [ "timing"; Engine.source_key b; Engine.sched_key b level; uarch;
             (match clock with
             | Some c -> Printf.sprintf "%h" c
             | None -> "-") ])
  | _ -> None

let lint_key benchmarks =
  digest ("lint" :: List.map Engine.source_key benchmarks)

(* Memo first, then single-flight: the closure re-checks the memo so a
   caller that raced past the first check but became a leader after the
   previous flight completed still serves the stored response instead of
   recomputing.  [computed] distinguishes a leader that really ran the
   analysis (Miss) from one that won the race to a finished entry (Hit). *)
let serve_cached t ~key compute =
  match memo_find t key with
  | Some payload ->
      Atomic.incr t.memo_hits;
      (Api.Hit, Ok payload)
  | None -> (
      let computed = ref false in
      match
        Inflight.run t.inflight ~key (fun () ->
            match memo_find t key with
            | Some payload -> payload
            | None ->
                computed := true;
                let payload = compute () in
                memo_add t key payload;
                payload)
      with
      | payload, Inflight.Led ->
          if !computed then (Api.Miss, Ok payload)
          else begin
            Atomic.incr t.memo_hits;
            (Api.Hit, Ok payload)
          end
      | payload, Inflight.Joined ->
          Atomic.incr t.coalesced;
          (Api.Join, Ok payload)
      | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn)))

let find_benchmark name =
  match Registry.find_opt name with
  | Some b -> Ok b
  | None ->
      Error
        (Diag.make ~stage:Diag.Driver
           ~context:[ ("benchmark", name) ]
           (Registry.unknown_message name))

let with_benchmark t name req compute =
  match find_benchmark name with
  | Error d -> (Api.Uncached, Error d)
  | Ok b -> (
      match request_key b req with
      | Some key -> serve_cached t ~key (fun () -> compute b)
      | None -> (
          (* Unkeyed analysis request: compute uncoalesced (not reached
             by the current op set, but total by construction). *)
          match compute b with
          | payload -> (Api.Uncached, Ok payload)
          | exception exn ->
              (Api.Uncached, Error (Pipeline.diag_of_exn exn))))

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
  | Api.Detect { benchmark; query } ->
      with_benchmark t benchmark req (fun b ->
          let a = Engine.analyze t.engine b in
          Api.Detect_result (Pipeline.detect_report a query))
  | Api.Coverage { benchmark; query } ->
      with_benchmark t benchmark req (fun b ->
          let a = Engine.analyze t.engine b in
          Api.Coverage_result (Pipeline.coverage a query))
  | Api.Verify { benchmark; mode } ->
      with_benchmark t benchmark req (fun b ->
          let a =
            Engine.analyze t.engine
              ~verify:(mode :> Engine.verify_mode)
              b
          in
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
                  Api.ev_benchmark = b.name;
                  ev_levels =
                    List.length Asipfb_sched.Opt_level.all;
                  ev_refinement_failures = tagged "refinement";
                  ev_counterexamples = tagged "counterexample";
                  ev_findings = a.verify;
                })
  | Api.Lint { benchmark } -> (
      let benchmarks =
        match benchmark with
        | None -> Ok Registry.all
        | Some name -> Result.map (fun b -> [ b ]) (find_benchmark name)
      in
      match benchmarks with
      | Error d -> (Api.Uncached, Error d)
      | Ok benchmarks ->
          serve_cached t ~key:(lint_key benchmarks) (fun () ->
              let r =
                Pipeline.run_suite ~engine:t.engine ~verify:`Tv ~benchmarks
                  ~on_error:`Raise ()
              in
              Api.Findings
                (List.concat_map
                   (fun (a : Pipeline.analysis) -> a.verify)
                   r.analyses)))
  | Api.Timing { benchmark; level; uarch; clock } -> (
      match Asipfb.Timing.uarch_of ?clock uarch with
      | Error msg ->
          ( Api.Uncached,
            Error
              (Diag.make ~stage:Diag.Selection
                 ~context:[ ("kind", "unknown-uarch"); ("uarch", uarch) ]
                 msg) )
      | Ok u ->
          with_benchmark t benchmark req (fun b ->
              let a = Engine.analyze t.engine b in
              Api.Timing_result (Asipfb.Timing.of_analysis ~uarch:u a level)))
  | Api.Corpus_sample { seed; index; size } -> (
      match
        let source = Asipfb_corpus.Gen.source ~seed ?size ~index () in
        let size =
          match size with
          | Some s -> max 3 s
          | None -> Asipfb_corpus.Gen.default_size
        in
        Api.Sample
          { seed; index; size;
            name = Asipfb_corpus.Gen.name ~seed ~index; source }
      with
      | payload -> (Api.Uncached, Ok payload)
      | exception exn -> (Api.Uncached, Error (Pipeline.diag_of_exn exn)))

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
          | exception exn ->
              (* Dispatch is already exception-safe per arm; this is the
                 last-resort belt for daemon totality. *)
              (Api.Uncached, Error (Pipeline.diag_of_exn exn))
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
