(** Chained-instruction selection under an area budget — the "ASIP design"
    box of the paper's Figure 1, fed by the detector's output.

    Greedy knapsack on benefit density: at each step, re-detect sequences
    with already-claimed operations masked (as in the coverage analysis),
    keep the candidates that fit the remaining area and close timing at
    the configured uarch's clock, and take the one with the highest
    saved-cycles-per-area; repeat until budget or candidates run out.

    Savings are latency-weighted against the machine description: a chain
    absorbing a 3-cycle multiply saves more than three 1-cycle adds.
    Candidates that pass the legacy feasibility cutoff but violate the
    uarch clock are rejected with a structured diagnostic naming the
    offending path ({!choose_report}). *)

type choice = {
  classes : string list;
  freq : float;  (** Frequency when chosen (after masking). *)
  area : float;
  delay : float;  (** Critical path under the selecting uarch. *)
  saved_cycles : int;
      (** Dynamic cycles saved: each occurrence replaces its members'
          summed latencies by the chained instruction's cycles. *)
}

type config = {
  area_budget : float;
  max_delay : float;
  lengths : int list;
  min_freq : float;
  max_instructions : int;
  uarch : Uarch.t;  (** Machine description scoring the candidates. *)
}

val default_config : config
(** budget 30 adder-equivalents, max_delay 1.8, lengths 2–4, min_freq 2.0,
    at most 8 chained instructions, uarch {!Uarch.flat}. *)

val choose :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t ->
  choice list
(** Chosen chained instructions in selection order. *)

val choose_report :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t ->
  choice list * Asipfb_diag.Diag.t list
(** Like {!choose}, also returning one warning diagnostic (kind
    ["clock-violation"]) per distinct candidate chain whose critical path
    exceeds the uarch clock period — empty under {!Uarch.flat}, whose
    clock equals the legacy feasibility cutoff. *)
