(** Iterative sequence-coverage analysis (section 7 of the paper).

    Greedy loop: detect sequences over all requested lengths, take the
    highest-frequency one, mask every operation its occurrences use so they
    cannot be counted again, repeat until nothing of significant frequency
    remains.  The cumulative frequency of the chosen sequences is the
    coverage obtainable by implementing them as chained instructions. *)

type pick = {
  pick_classes : string list;
  pick_freq : float;  (** Frequency at the time it was chosen. *)
}

type result = {
  picks : pick list;  (** In choice order. *)
  coverage : float;  (** Sum of pick frequencies, percent. *)
  completeness : Detect.completeness;
      (** [Budget_truncated] if any underlying detection run degraded to
          the greedy scan, so coverage tables can flag the numbers. *)
}

type config = {
  lengths : int list;  (** Sequence lengths to consider (paper: 2–5). *)
  stop_below : float;  (** Stop when the best remaining frequency is lower. *)
  max_picks : int;
  budget : int option;
      (** Node budget applied to each underlying detection run (see
          {!Detect.config}); [None] = exact. *)
}

val default_config : config
(** lengths 2–4, stop_below 3.0, max_picks 6, budget [None] — matching
    Table 3's shape (up to six sequences per benchmark, none below
    ~3%). *)

val analyze :
  config -> Asipfb_sched.Schedule.t -> profile:Asipfb_exec.Profile.t -> result
