(** Dynamic operation-mix analysis — the McDaniel-style single-operation
    frequency study the paper cites as the baseline its sequence analysis
    generalizes ([8] in the paper).

    Buckets every executed operation by its chain class (or a pseudo-class
    for non-chainable operations) and reports each bucket's share of
    execution time.  Comparing this table with the sequence results shows
    what the pair/triple analysis adds over per-op counting. *)

type entry = {
  op_class : string;
      (** A {!Asipfb_chain.Chainop} class, or "mov" / "convert" /
          "intrinsic" / "control" / "call" for non-chainable ops. *)
  dynamic_count : int;
  share : float;  (** Percent of all executed operations. *)
}

val analyze :
  Asipfb_ir.Prog.t -> profile:Asipfb_exec.Profile.t -> entry list
(** Buckets sorted by decreasing share.  Only classes that actually
    executed appear. *)

val share_of : entry list -> string -> float
(** 0 when the class is absent. *)
