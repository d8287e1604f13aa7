(** The unified execution core.

    One interpreter over the pre-compiled {!Code.t} form backs both the
    base profiler ({!Asipfb_sim.Interp}) and the ASIP timing simulator
    ([Asipfb_asip.Tsim]): registers live in flat per-call frames, memory
    accesses index a flat region table, profile counters are a dense int
    array, and a [Fused] slot executes its members in one cycle — so base
    and target cycle comparisons share one semantics by construction.

    Instrumentation is a {e statically selected instantiation} of the
    {!Make} functor: the common profiling path ({!Plain}) carries no
    fault-injection branch; fault hooks exist only in the {!Faulted}
    instantiation. *)

exception Out_of_fuel of { executed : int; fuel : int }
(** The fuel budget ran out: [executed] ops were performed under a budget
    of [fuel] cycles.  Distinct from {!Ops.Trap} so consumers can classify
    timeouts separately from crashes. *)

exception Watchdog_abort of { executed : int }
(** A watchdog poll reported the task's deadline passed; [executed] ops
    had been performed.  Raised only when [run] is given [?watchdog]. *)

val watchdog_interval : int
(** Executed slots between watchdog polls (the poll rides on the fuel
    counter, so unwatched runs pay nothing beyond one compare). *)

type outcome = {
  return_value : Value.t option;
  memory : Memory.t;  (** Final memory (shared with the region table). *)
  counts : int array;  (** Dense profile counters; see
                           {!Code.t.prof_opids} and {!profile_of_counts}. *)
  cycles : int;  (** Executed slots — a fused slot costs one. *)
  ops : int;  (** Executed operations, fused members included. *)
  fused : int;  (** How many executed slots were fused groups. *)
}

val profile_of_counts : Code.t -> int array -> Profile.t
(** Convert the dense counters back to a {!Profile.t} keyed by opid
    (only executed opids appear, like the hashtable profile of old). *)

module type HOOKS = sig
  type t
  (** Instrumentation state threaded through a run. *)

  val faulted : bool
  (** When [false], the core invokes no value-corruption hooks at all. *)

  val on_reg_write : t -> Value.t -> Value.t
  (** May corrupt a value about to be written (only when [faulted]). *)

  val on_mem_load : t -> Value.t -> Value.t
  (** May corrupt a loaded value (only when [faulted]). *)
end

module type S = sig
  type hooks

  val run :
    ?fuel:int ->
    ?inputs:(string * Value.t array) list ->
    ?watchdog:(unit -> bool) ->
    hooks:hooks ->
    Code.t ->
    outcome
  (** Execute from the entry function.  [fuel] bounds executed cycles
      (default 50 million); [inputs] seed named regions; [watchdog] is
      polled every {!watchdog_interval} slots and aborts the run when it
      returns [true].
      @raise Ops.Trap on any runtime trap.
      @raise Out_of_fuel when the budget is exhausted.
      @raise Watchdog_abort when [watchdog] reports expiry. *)
end

module Make (H : HOOKS) : S with type hooks = H.t

module Plain : S with type hooks = unit
(** No instrumentation — the fast profiling path. *)

module Faulted : S with type hooks = Fault.t
(** Seeded fault injection on register writes and memory loads. *)
