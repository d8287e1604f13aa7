(** Translation validation: a per-function refinement checker for
    scheduled code.

    This is the only schedule verifier.  It proves that the transformed
    program refines the original under the small-step {!Semantics} — on
    every input where the original runs to completion without trapping,
    the transformed program produces the same observation trace, return
    value, and final memory.  (Inputs on which the original traps are
    treated as outside the contract, the usual
    source-trap-as-undefined-behavior refinement.)

    The argument is a block-level simulation over {e cut points} — the
    entry block and every join (a block with zero or several
    predecessors).  Both sides are executed symbolically from shared cut
    variables; obligations are discharged by a normalizing expression
    simplifier whose constant folding delegates to {!Asipfb_exec.Ops}, so
    compile-time and run-time arithmetic agree by construction.  One
    more obligation, [definedness], is dataflow rather than symbolic: the
    transformed function may read a maybe-uninitialized register
    ({!Asipfb_cfg.Defined.uninit_reads}) only at an opid where the
    original does — such a read traps on the core even when its result
    is dead, so no value obligation would see it.  The
    checker is conservative: [Refines] is a proof, a failure is only a
    *suspicion* — which is why every failure is accompanied, when one can
    be found, by a concrete counterexample replayed on {!Semantics} and
    confirmed on the execution core ({!Asipfb_sim.Interp}), which shares
    no code with {!Semantics}, as an independent oracle. *)

(** {1 Verdicts} *)

type failure = {
  fl_func : string;
  fl_block : int option;  (** [None] for whole-function obligations. *)
  fl_check : string;
      (** Obligation family: ["cfg-shape"], ["terminator"], ["calls"],
          ["events"], ["cut-edge"], ["definedness"], ["structure"]. *)
  fl_detail : string;  (** Human explanation with symbolic values. *)
}

type counterexample = {
  cx_attempt : int;  (** Input-generator attempt that diverged. *)
  cx_inputs : (string * Asipfb_exec.Value.t list) list;
      (** The concrete input valuation, per region. *)
  cx_divergence : string;
      (** Where the two runs part ways (trace index, result, or
          memory). *)
  cx_original_trace : string list;  (** Rendered, possibly truncated. *)
  cx_transformed_trace : string list;
  cx_ref_confirmed : bool;
      (** A replay on the execution core ({!Asipfb_sim.Interp}) on
          these inputs also observes the divergence. *)
}

type verdict =
  | Refines
  | Fails of { failures : failure list; counterexample : counterexample option }
      (** [failures] is non-empty, deterministically ordered. *)

(** {1 Checking} *)

val check :
  ?attempts:int ->
  original:Asipfb_ir.Prog.t ->
  transformed:Asipfb_ir.Prog.t ->
  unit ->
  verdict
(** [check ~original ~transformed ()] discharges the refinement
    obligations for every function of [original].  On failure it searches
    [attempts] (default 8) deterministic input valuations (see
    {!sample_inputs}) for a concrete divergence, preferring one the
    execution core confirms. *)

val check_func :
  original:Asipfb_ir.Func.t ->
  transformed:Asipfb_ir.Func.t ->
  failure list
(** The static obligations for one function; [[]] when they all
    discharge. *)

val sample_inputs :
  Asipfb_ir.Prog.t -> attempt:int -> (string * Asipfb_exec.Value.t array) list
(** The deterministic input valuation used by the counterexample search:
    attempt 0 is all-zeros, later attempts are seeded {!Asipfb_util.Prng}
    draws.  Exposed so the mutation tests replay the checker's own
    inputs. *)

val to_diags :
  ?context:(string * string) list -> verdict -> Asipfb_diag.Diag.t list
(** [Refines] is [[]].  Each failure becomes a stage-[Verification]
    [Error] with [("check", "refinement")] plus the obligation family and
    location in its context; the counterexample, when present, is one
    more diagnostic with [("check", "counterexample")], the inputs, the
    divergence and both traces. *)

(** {1 Rendering} *)

val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string
