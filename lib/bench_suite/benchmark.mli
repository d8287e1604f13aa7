(** One benchmark of the paper's DSP suite (Table 1).

    A benchmark bundles its mini-C source, Table 1 metadata, and a
    deterministic input generator, and knows how to compile itself and
    name its output regions so tests can compare runs. *)

type t = {
  name : string;
  description : string;  (** Table 1 description column. *)
  data_input : string;  (** Table 1 data-input column. *)
  source : string;  (** Mini-C translation unit with a [void main()]. *)
  inputs : unit -> (string * Asipfb_exec.Value.t array) list;
      (** Seeded input data for the named regions; deterministic. *)
  output_regions : string list;
      (** Regions holding results, compared by equivalence tests. *)
}

val compile : t -> Asipfb_ir.Prog.t
(** Compile the benchmark's source with entry [main].
    @raise Failure (via front-end exceptions) if the source is invalid —
    a suite bug, exercised by tests. *)

val run : t -> Asipfb_sim.Interp.outcome
(** Compile, seed inputs, and execute. *)

val run_with_faults : t -> faults:Asipfb_exec.Fault.t -> Asipfb_sim.Interp.outcome
(** {!run} under a fault injector (see {!Asipfb_exec.Fault}). *)

val expected_outputs : t -> (string * Asipfb_exec.Value.t array) list
(** Golden output-region contents from a clean run.  Deterministic
    (LCG-generated inputs), memoized per benchmark name. *)

val self_check : t -> Asipfb_sim.Interp.outcome -> (unit, string) result
(** Compare [outcome]'s output regions against {!expected_outputs} with
    {!Asipfb_exec.Value.close}.  [Error] names the first mismatching cell —
    the hook that turns silently corrupted (fault-injected) runs into
    diagnostics instead of wrong profiles. *)

val source_lines : t -> int
(** Non-blank source line count (Table 1's "Lines C-code" analogue). *)
