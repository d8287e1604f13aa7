(* The supervision layer: every engine task runs under a policy of
   watchdog timeouts, bounded retry with exponential backoff, and
   quarantine of repeatedly failing benchmarks.

   The supervisor never changes what a successful task computes — it only
   decides whether and when a task body runs again, and records what
   happened as structured diagnostics.  That keeps the engine's central
   determinism contract intact: whenever retries succeed, artifacts are
   byte-identical to an unsupervised run. *)

module Diag = Asipfb_diag.Diag
module Prng = Asipfb_util.Prng

module Policy = struct
  type t = {
    retries : int;
    backoff_base_s : float;
    backoff_factor : float;
    backoff_max_s : float;
    jitter : float;
    task_timeout_s : float option;
    quarantine_threshold : int;
    sleep : float -> unit;
    now : unit -> float;
  }

  let default =
    {
      retries = 2;
      backoff_base_s = 0.05;
      backoff_factor = 2.0;
      backoff_max_s = 1.0;
      jitter = 0.5;
      task_timeout_s = None;
      quarantine_threshold = 3;
      sleep = Unix.sleepf;
      now = Unix.gettimeofday;
    }

  let off =
    { default with retries = 0; quarantine_threshold = 0;
      task_timeout_s = None }
end

type classification = Transient | Permanent | Timeout

let classification_to_string = function
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Timeout -> "timeout"

let classify = function
  | Chaos.Injected _ -> Transient
  | Sys_error _ -> Transient
  | Asipfb_sim.Interp.Watchdog_timeout _ -> Timeout
  | Asipfb_sim.Interp.Fuel_exhausted _ -> Timeout
  | Diag.Diag_error d
    when List.assoc_opt "kind" d.Diag.context = Some "timeout" ->
      Timeout
  | _ -> Permanent

let retryable = function Transient | Timeout -> true | Permanent -> false

exception Quarantined of { benchmark : string; failed_attempts : int }

type attempt_record = {
  task : string;
  attempt : int;
  classification : classification;
  message : string;
}

type group_state = {
  mutable failed_attempts : int;
  mutable gave_up : int; (* tasks that failed for good *)
  mutable history : attempt_record list; (* newest first *)
  mutable is_quarantined : bool;
}

type stats = {
  tasks : int;
  attempts : int;
  retries : int;
  failures : int;
  timeouts : int;
  quarantined : int;
  degraded : int;
}

type t = {
  policy : Policy.t;
  chaos : Chaos.t option;
  mutex : Mutex.t;
  groups : (string, group_state) Hashtbl.t;
  mutable events : Diag.t list; (* newest first; sorted by report *)
  mutable tasks : int;
  mutable attempts : int;
  mutable retries : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable degraded : int;
}

type ctx = { attempt : int; watchdog : (unit -> bool) option }

let create ?(policy = Policy.default) ?chaos () =
  {
    policy;
    chaos = Option.map Chaos.create chaos;
    mutex = Mutex.create ();
    groups = Hashtbl.create 16;
    events = [];
    tasks = 0;
    attempts = 0;
    retries = 0;
    failures = 0;
    timeouts = 0;
    degraded = 0;
  }

let policy t = t.policy
let chaos t = t.chaos

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let note t d = with_lock t (fun () -> t.events <- d :: t.events)

let note_degraded t d =
  with_lock t (fun () ->
      t.degraded <- t.degraded + 1;
      t.events <- d :: t.events)

(* Deterministic jittered exponential backoff: the jitter draw depends
   only on (group, task, attempt), so a rerun sleeps the same amount. *)
let backoff_delay (p : Policy.t) ~group ~name ~attempt =
  let d =
    p.backoff_base_s *. (p.backoff_factor ** float_of_int (attempt - 1))
  in
  let d = Float.min d p.backoff_max_s in
  let u = Prng.next_float (Prng.create ~seed:(Hashtbl.hash (group, name, attempt))) in
  Float.max 0.0 (d *. (1.0 +. (p.jitter *. (u -. 0.5))))

let exn_message = function
  | Diag.Diag_error d -> d.Diag.message
  | Failure m -> m
  | Chaos.Injected m -> m
  | exn -> Printexc.to_string exn

let group_state_unlocked t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
      let g =
        { failed_attempts = 0; gave_up = 0; history = [];
          is_quarantined = false }
      in
      Hashtbl.add t.groups group g;
      g

let history_context history =
  List.mapi
    (fun i (r : attempt_record) ->
      ( Printf.sprintf "attempt-%d" (i + 1),
        Printf.sprintf "%s #%d %s: %s" r.task r.attempt
          (classification_to_string r.classification)
          r.message ))
    (List.rev history)

let quarantine_diag ~group ~failed_attempts ~history =
  Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
    ~context:
      ([ ("kind", "quarantined"); ("benchmark", group);
         ("failed_attempts", string_of_int failed_attempts) ]
      @ history_context history)
    (Printf.sprintf
       "quarantining benchmark %s after %d failed attempt(s); its remaining \
        tasks will be skipped"
       group failed_attempts)

(* A task without a group is its own group.  Only a task that gives up
   (a permanent failure, or its retries used up) counts toward its
   group's quarantine, so the retry policy alone bounds a task's
   attempts. *)
let run t ?group ~name f =
  let group = Option.value group ~default:name in
  let p = t.policy in
  let gate =
    with_lock t (fun () ->
        t.tasks <- t.tasks + 1;
        match Hashtbl.find_opt t.groups group with
        | Some g when g.is_quarantined -> Some g.failed_attempts
        | _ -> None)
  in
  match gate with
  | Some failed_attempts ->
      Error (Quarantined { benchmark = group; failed_attempts })
  | None ->
      let max_attempts = 1 + max 0 p.retries in
      let task_key attempt = Printf.sprintf "%s#%d" name attempt in
      let rec attempt_loop attempt =
        with_lock t (fun () -> t.attempts <- t.attempts + 1);
        (match t.chaos with
        | Some c -> (
            match Chaos.task_delay c ~key:(task_key attempt) with
            | Some d -> p.sleep d
            | None -> ())
        | None -> ());
        let started = p.now () in
        let deadline = Option.map (fun s -> started +. s) p.task_timeout_s in
        let watchdog = Option.map (fun d () -> p.now () > d) deadline in
        let result =
          try
            (match t.chaos with
            | Some c when Chaos.task_crash c ~key:(task_key attempt) ->
                raise
                  (Chaos.Injected
                     (Printf.sprintf "chaos: injected task fault (%s, attempt %d)"
                        name attempt))
            | _ -> ());
            Ok (f { attempt; watchdog })
          with exn -> Error exn
        in
        match result with
        | Ok v ->
            (* Soft pool-level watchdog: a task that cannot be aborted
               from inside (no instruction hook) still gets its overrun
               recorded. *)
            (match deadline with
            | Some d when p.now () > d ->
                note t
                  (Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
                     ~context:
                       [ ("kind", "overrun"); ("benchmark", group);
                         ("task", name) ]
                     "task overran its watchdog budget but completed")
            | _ -> ());
            if attempt > 1 then
              note t
                (Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
                   ~context:
                     [ ("kind", "recovered"); ("benchmark", group);
                       ("task", name); ("attempt", string_of_int attempt) ]
                   (Printf.sprintf "task %s recovered on attempt %d" name
                      attempt));
            Ok v
        | Error exn ->
            let cls = classify exn in
            let msg = exn_message exn in
            let retry = retryable cls && attempt < max_attempts in
            let quarantined_now =
              with_lock t (fun () ->
                  t.failures <- t.failures + 1;
                  if cls = Timeout then t.timeouts <- t.timeouts + 1;
                  let g = group_state_unlocked t group in
                  g.failed_attempts <- g.failed_attempts + 1;
                  g.history <-
                    { task = name; attempt; classification = cls;
                      message = msg }
                    :: g.history;
                  if not retry then g.gave_up <- g.gave_up + 1;
                  if
                    p.quarantine_threshold > 0
                    && g.gave_up >= p.quarantine_threshold
                    && not g.is_quarantined
                  then begin
                    g.is_quarantined <- true;
                    Some (g.failed_attempts, g.history)
                  end
                  else None)
            in
            (match quarantined_now with
            | Some (failed_attempts, history) ->
                note t (quarantine_diag ~group ~failed_attempts ~history)
            | None -> ());
            if retry then begin
              let delay = backoff_delay p ~group ~name ~attempt in
              with_lock t (fun () -> t.retries <- t.retries + 1);
              note t
                (Diag.make ~severity:Diag.Warning ~stage:Diag.Driver
                   ~context:
                     [ ("kind", "retry"); ("benchmark", group);
                       ("task", name); ("attempt", string_of_int attempt);
                       ("class", classification_to_string cls) ]
                   (Printf.sprintf
                      "task %s failed (%s: %s); retrying after %.3fs" name
                      (classification_to_string cls) msg delay));
              p.sleep delay;
              attempt_loop (attempt + 1)
            end
            else Error exn
      in
      attempt_loop 1

let report t =
  let events = with_lock t (fun () -> t.events) in
  List.sort (fun a b -> String.compare (Diag.to_string a) (Diag.to_string b))
    events

let quarantine_records t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun group g acc ->
          if g.is_quarantined then
            (group, g.failed_attempts, List.rev g.history) :: acc
          else acc)
        t.groups [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let is_quarantined t group =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.groups group with
      | Some g -> g.is_quarantined
      | None -> false)

let stats t =
  with_lock t (fun () ->
      let quarantined =
        Hashtbl.fold
          (fun _ g n -> if g.is_quarantined then n + 1 else n)
          t.groups 0
      in
      {
        tasks = t.tasks;
        attempts = t.attempts;
        retries = t.retries;
        failures = t.failures;
        timeouts = t.timeouts;
        quarantined;
        degraded = t.degraded;
      })

let reset t =
  with_lock t (fun () ->
      Hashtbl.reset t.groups;
      t.events <- [];
      t.tasks <- 0;
      t.attempts <- 0;
      t.retries <- 0;
      t.failures <- 0;
      t.timeouts <- 0;
      t.degraded <- 0)
