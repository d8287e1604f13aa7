(** Deterministic chaos injection at the engine's seams.

    The chaos harness injects faults — task exceptions, artificial
    delays, cache-byte corruption and truncation — at well-defined seams
    of the analysis engine, driven entirely by a seed and a rate.  Every
    decision is a pure function of [(seed, site, key)], where [site]
    names the seam (["task-crash"], ["cache-write"], …) and [key] names
    the unit of work (task name plus attempt number, or a cache key), so
    a chaos run is reproducible bit-for-bit regardless of domain
    interleaving: the same seed injects the same faults every time.

    Combined with the supervision layer's retries and the cache's
    checksum self-healing, a chaos run with a fixed seed must produce
    artifacts byte-identical to a fault-free run — the property the
    chaos smoke test asserts. *)

type config = {
  seed : int;  (** Equal seeds give identical fault decisions. *)
  rate : float;  (** Per-site fault probability, [0, 1]. *)
}

exception Injected of string
(** The fault raised into a supervised task body when the ["task-crash"]
    site fires.  Classified [Transient] by the supervisor, so retries
    absorb it. *)

type t

val create : config -> t
(** @raise Invalid_argument if [rate] is outside [0, 1]. *)

val config : t -> config

val enabled : t -> bool
(** [rate > 0]; a disabled injector never fires. *)

val task_crash : t -> key:string -> bool
(** Whether to raise {!Injected} into the task named [key] (the
    supervisor keys this by task name and attempt, so a retry of the
    same task draws independently). *)

val core_crash : t -> key:string -> bool
(** Whether to simulate an execution-core crash for this task — the
    seam that exercises the degradation ladder onto the reference
    semantics ([Asipfb_engine.Fallback]). *)

val task_delay : t -> key:string -> float option
(** An artificial sub-5ms delay to sleep before the task body, or
    [None]. *)

val mangle : t -> site:string -> key:string -> string -> string
(** Possibly corrupt a serialized payload: flip one byte or truncate at
    a deterministic position.  Applied by the cache to the encoded entry
    on the ["cache-write"] and ["cache-read"] seams; the entry checksum
    must catch every mangling. *)
