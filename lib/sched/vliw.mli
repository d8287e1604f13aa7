(** Resource-constrained VLIW scheduling — the multiple-issue
    characterization the paper's conclusion proposes as the next feedback
    channel.

    List-schedules each block under a machine description (issue slots per
    cycle, memory ports, floating-point units) and estimates the whole
    program's dynamic cycle count from the per-block schedule lengths
    weighted by block execution counts.  Sweeping the issue width gives
    the designer the speedup-vs-width curve that motivates (or kills) a
    multiple-issue ASIP. *)

type machine = {
  issue_width : int;  (** Ops started per cycle. *)
  mem_ports : int;  (** Loads+stores per cycle. *)
  float_units : int;  (** Floating-point ops per cycle. *)
}

val machine : ?mem_ports:int -> ?float_units:int -> int -> machine
(** [machine w] is a width-[w] machine; memory ports default to
    [max 1 (w/2)], float units to [max 1 (w/2)].
    @raise Invalid_argument if any resource is non-positive. *)

val scalar : machine
(** The 1-issue baseline: every op takes its own cycle. *)

val schedule_block :
  ?latency:(Asipfb_ir.Instr.t -> int) ->
  machine -> Asipfb_ir.Instr.t array -> int array * int
(** [schedule_block m ops] list-schedules one block under dependences and
    resources; returns per-op cycles and the schedule length.  Priority is
    longest-path-to-exit (critical path first).  [?latency] reweights the
    register flow edges with per-opcode latencies (see {!Ddg.build}). *)

type estimate = {
  widths : (int * int) list;  (** (issue width, dynamic cycles). *)
  scalar_cycles : int;
}

val characterize :
  ?widths:int list ->
  ?latency:(Asipfb_ir.Instr.t -> int) ->
  Asipfb_ir.Prog.t ->
  profile:Asipfb_exec.Profile.t ->
  estimate
(** Dynamic-cycle estimate of the program at each issue width (default
    1, 2, 4, 8).  Block execution counts are taken as the maximum dynamic
    count over the block's ops (from the profile), so the estimate works
    on transformed code whose opids survive from the profiling run. *)

val speedup_at : estimate -> int -> float
(** [speedup_at e w] — scalar cycles / cycles at width [w].
    @raise Not_found if that width was not characterized. *)
