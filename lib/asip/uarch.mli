(** Microarchitecture descriptions: the timing side of the machine model.

    The paper's feedback loop steers ASIP design with compiler-observed
    behaviour, but behaviour is only comparable across designs relative to
    a machine description.  A [Uarch.t] names one: an explicit clock
    period, and per chain class a result latency (cycles until a dependent
    op may issue), an initiation interval (cycles until the unit accepts
    the next op), and the unit's combinational delay as a fraction of the
    baseline cycle.  {!Cost}, {!Select}, {!Speedup}, {!Tsim} and
    {!Resched} all derive their timing numbers from here, and all default
    to the {!flat} preset (every op one cycle, clock budget 1.8). *)

type op_timing = {
  latency : int;  (** Result latency in cycles (>= 1). *)
  ii : int;  (** Initiation interval in cycles (>= 1). *)
  delay : float;  (** Combinational delay, fraction of the baseline cycle. *)
}

type t
(** A named machine description. *)

val flat : t
(** The default machine: clock period 1.8, every class single-cycle
    (latency 1, ii 1), delays equal to the {!Cost} table.  Baseline cycles
    under [flat] are dynamic op counts. *)

val risc5 : t
(** A pipelined five-stage RISC-style core: clock period 1.5, multi-cycle
    multiply/divide/float units (divide is also non-pipelined: ii equals
    its latency), two-cycle loads. *)

val presets : t list
(** [flat; risc5]. *)

val names : string list
(** Preset names, in {!presets} order. *)

val find : string -> t option
(** Look a preset up by name. *)

val name : t -> string
val clock : t -> float

val with_clock : t -> clock:float -> t
(** Same timings under an overridden clock period (the [--clock] CLI
    surface).  @raise Invalid_argument if [clock] is not positive. *)

val key : t -> string
(** Stable identity for cache keys: name plus effective clock, e.g.
    ["risc5@1.5"] — distinct whenever selection could differ. *)

val timing : t -> string -> op_timing
(** Timing of one chain class.
    @raise Asipfb_diag.Diag.Diag_error for an unknown class (kind
    ["unknown-chain-class"]). *)

val timing_opt : t -> string -> op_timing option

val unit_delay : t -> string -> float
val latency : t -> string -> int
val ii : t -> string -> int

val instr_latency : t -> Asipfb_ir.Instr.t -> int
(** Latency of an instruction by its chain class; 1 for non-chainable
    operations (moves, control flow, calls — the uarch prices the
    datapath, not the front end). *)

val chain_delay : t -> string list -> float
(** Combinational critical path of a cascade: the sum of member delays. *)

val chain_latency : t -> string list -> int
(** Baseline cycles the chain's members cost individually: the sum of
    member latencies (what a chained instruction absorbs). *)

val chain_cycles : t -> string list -> int
(** Cycles one execution of the chained instruction takes: the critical
    path divided by the clock period, rounded up, at least 1. *)

val chain_slack : t -> string list -> float
(** [clock - chain_delay]: non-negative iff the cascade fits the clock. *)

val fits_clock : t -> string list -> bool
(** Whether the cascade's critical path fits one clock period. *)
