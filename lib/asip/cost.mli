(** Area/delay cost model for chained functional units.

    Units are normalized: area in adder-equivalents, delay as a fraction
    of the baseline cycle.  A chained instruction cascades the functional
    units of its member classes; its area is the sum of unit areas plus a
    per-link forwarding overhead, and its delay is the sum of unit delays
    (the data ripples through combinationally — the whole point of
    chaining, section 4).

    Areas live here; delays are owned by the machine description
    ({!Uarch}) and default to the {!Uarch.flat} preset. *)

val unit_area : string -> float
(** Area of one functional unit by chain class.
    @raise Asipfb_diag.Diag.Diag_error for an unknown class (kind
    ["unknown-chain-class"]) — structured, so a bad class name in a
    corpus run degrades into a diagnostic instead of crashing the task. *)

val unit_delay : ?uarch:Uarch.t -> string -> float
(** Combinational delay of one functional unit by chain class under
    [uarch] (default {!Uarch.flat}).
    @raise Asipfb_diag.Diag.Diag_error for an unknown class. *)

val link_area : float
(** Forwarding-path overhead added per chain link. *)

val chain_area : string list -> float
val chain_delay : ?uarch:Uarch.t -> string list -> float

val chain_feasible : ?uarch:Uarch.t -> ?max_delay:float -> string list -> bool
(** Whether the cascade fits the clock.  [max_delay] defaults to the
    uarch's clock period — 1.8 under the default {!Uarch.flat}: chained
    cycles may stretch the critical path noticeably before the
    single-cycle abstraction breaks down. *)
