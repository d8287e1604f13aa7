(** Task supervision: watchdog timeouts, bounded retry with exponential
    backoff, and quarantine of repeatedly failing work groups.

    A supervisor wraps each engine task in {!run}.  The policy decides
    how many times a failing task body is re-run, how long to back off
    between attempts, whether a per-task wall-clock watchdog is armed,
    and when a whole group (benchmark) has failed often enough to be
    quarantined — skipped with a {!Quarantined} error instead of
    crashing the suite again.

    The supervisor never alters what a successful task computes, so
    whenever retries succeed the run's artifacts are byte-identical to
    an unsupervised run.  Everything it observes is recorded as
    {!Asipfb_diag.Diag.t} events retrievable via {!report}. *)

module Policy : sig
  type t = {
    retries : int;  (** Extra attempts after the first failure. *)
    backoff_base_s : float;  (** Delay before the first retry. *)
    backoff_factor : float;  (** Multiplier per subsequent retry. *)
    backoff_max_s : float;  (** Cap on any single backoff delay. *)
    jitter : float;
        (** Fraction of the delay randomized (deterministically, keyed
            by group/task/attempt) around its nominal value. *)
    task_timeout_s : float option;
        (** Per-task wall-clock budget.  Simulation tasks poll it
            cooperatively via [ctx.watchdog] and abort; other tasks get
            a completion-time overrun diagnostic. *)
    quarantine_threshold : int;
        (** Tasks of a group that gave up — failed permanently, or
            used up their retries — after which the group is
            quarantined; [0] disables quarantine.  A retried attempt
            is kept in the group's history but does not count. *)
    sleep : float -> unit;  (** Injectable for tests. *)
    now : unit -> float;  (** Injectable for tests. *)
  }

  val default : t
  (** 2 retries, 50ms base backoff doubling to a 1s cap, 50% jitter, no
      watchdog, quarantine once 3 of a group's tasks gave up. *)

  val off : t
  (** No retries, no quarantine, no watchdog: fail-fast semantics
      identical to the pre-supervision engine. *)
end

type classification = Transient | Permanent | Timeout

val classify : exn -> classification
(** Chaos-injected faults and [Sys_error] are [Transient]; watchdog and
    fuel exhaustion (including diagnostics carrying [kind=timeout]) are
    [Timeout]; everything else is [Permanent].  Only [Transient] and
    [Timeout] failures are retried. *)

val classification_to_string : classification -> string

exception Quarantined of { benchmark : string; failed_attempts : int }
(** Returned (inside [Error]) for every task of a quarantined group. *)

type attempt_record = {
  task : string;
  attempt : int;
  classification : classification;
  message : string;
}

type stats = {
  tasks : int;  (** Supervised task executions requested. *)
  attempts : int;  (** Task body invocations (>= tasks - quarantined). *)
  retries : int;
  failures : int;  (** Failed attempts, including retried ones. *)
  timeouts : int;
  quarantined : int;  (** Groups currently quarantined. *)
  degraded : int;  (** Degradation events (cache, pool, oracle). *)
}

type t

type ctx = {
  attempt : int;  (** 1-based attempt number for the running body. *)
  watchdog : (unit -> bool) option;
      (** Polled cooperatively by long-running bodies; [true] means the
          deadline passed and the body should abort. *)
}

val create : ?policy:Policy.t -> ?chaos:Chaos.config -> unit -> t

val policy : t -> Policy.t
val chaos : t -> Chaos.t option

val run : t -> ?group:string -> name:string -> (ctx -> 'a) -> ('a, exn) result
(** Run a task body under the policy.  Returns [Error (Quarantined _)]
    without invoking the body if [group] is quarantined; otherwise
    retries retryable failures with jittered exponential backoff and
    returns the last failure if attempts are exhausted.  Chaos task
    faults and delays, when configured, are injected here.

    [group] defaults to [name].  The task counts toward its group's
    quarantine only if it gives up, so a task that is not quarantined
    before it starts gets the policy's [1 + retries] attempts. *)

val note : t -> Asipfb_diag.Diag.t -> unit
(** Record an observability event. *)

val note_degraded : t -> Asipfb_diag.Diag.t -> unit
(** Record a degradation event (counts toward [stats.degraded]). *)

val report : t -> Asipfb_diag.Diag.t list
(** All recorded events, deterministically sorted. *)

val quarantine_records : t -> (string * int * attempt_record list) list
(** [(group, failed_attempts, history)] per quarantined group, with
    history oldest-first, sorted by group name. *)

val is_quarantined : t -> string -> bool
val stats : t -> stats
val reset : t -> unit
