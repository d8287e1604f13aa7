(** The unified execution core.

    One interpreter over the pre-compiled {!Code.t} form backs both the
    base profiler ({!Asipfb_sim.Interp}) and the ASIP timing simulator
    ([Asipfb_asip.Tsim]), so base and target cycle comparisons share one
    semantics by construction.

    - A call frame holds registers unboxed: an [int] cell, a [float] cell
      and a tag (undefined / int / float) per register, so an arithmetic
      result is written without allocating.
    - Each slot is compiled once per run into a closure.  Common shapes
      (int and float arithmetic, int compares, moves, loads, jumps)
      take fast paths; any other operand shape falls back to the boxed
      {!Value.t} form, so trap messages never depend on the path taken.
    - Fuel and the watchdog are charged once per straight run of slots
      (up to and including the next jump, branch, return or call) when
      no slot of it can exhaust the fuel or reach a poll, and per slot
      otherwise — so both fire at exactly the slot they always did.
    - [?faults] is resolved when the closures are built: a run without
      it calls no fault hook at all.

    Memory accesses index a flat region table, profile counters are a
    dense int array, and a [Fused] slot executes its members in one
    cycle. *)

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
  cycles : int;  (** Executed slots (the fuel consumed) — a fused slot
                    costs one. *)
  ops : int;  (** Executed operations, fused members included: the sum
                  of [counts]. *)
  fused : int;  (** How many executed slots were fused groups. *)
}

val profile_of_counts : Code.t -> int array -> Profile.t
(** Convert the dense counters back to a {!Profile.t} keyed by opid
    (only executed opids appear, like the hashtable profile of old). *)

val run :
  ?fuel:int ->
  ?inputs:(string * Value.t array) list ->
  ?faults:Fault.t ->
  ?watchdog:(unit -> bool) ->
  Code.t ->
  outcome
(** Execute from the entry function.  [fuel] bounds executed slots
    (default 50 million); [inputs] seed named regions; [faults] corrupts
    register writes and memory loads from its seeded stream; [watchdog]
    is polled every {!watchdog_interval} slots and aborts the run when it
    returns [true].
    @raise Ops.Trap on any runtime trap.
    @raise Out_of_fuel when the budget is exhausted.
    @raise Watchdog_abort when [watchdog] reports expiry. *)
