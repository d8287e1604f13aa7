(** Generic iterative dataflow over a {!Cfg.t}.

    One worklist solver covers the four classic quadrants
    (forward/backward × may/must): a client supplies a join semilattice
    of facts — equality, a per-block merge of incoming facts, and a
    block transfer function — and {!Make.solve} iterates to the least
    fixpoint.  {!Liveness} (backward/may) and {!Defined} (forward/must
    definite assignment) are its instances.

    Direction fixes which CFG edges propagate facts; may/must is
    entirely inside [merge] ([union] with an empty identity for may,
    [inter] seeded from a universe for must — the [Cfg.block] argument
    lets a must analysis pin the boundary fact at the entry block).
    Facts are indexed in CFG orientation regardless of direction:
    [input.(b)] holds at block [b]'s entry, [output.(b)] at its exit. *)

module type DOMAIN = sig
  type fact

  val direction : [ `Forward | `Backward ]

  val init : fact
  (** Starting value for every block's facts — the lattice bottom of the
      analysis ([empty] for may, the universe for must). *)

  val merge : Cfg.block -> fact list -> fact
  (** Combine the facts flowing into [block] ([output] of each
      predecessor when forward, [input] of each successor when
      backward).  The list order follows [block.preds]/[block.succs];
      it is called with [[]] at boundary blocks (no predecessors /
      no successors), which is where a may analysis returns its empty
      fact and a must analysis its boundary assumption. *)

  val transfer : Cfg.block -> fact -> fact
  (** Push a fact through the block in the analysis direction: entry
      fact to exit fact when forward, exit fact to entry fact when
      backward. *)

  val equal : fact -> fact -> bool
end

module Make (D : DOMAIN) : sig
  type result = { input : D.fact array; output : D.fact array }
  (** [input.(b)]: fact at block [b]'s entry; [output.(b)]: at its
      exit — CFG orientation for both directions. *)

  val solve : Cfg.t -> result
  (** Iterate to the least fixpoint.  Deterministic: blocks are visited
      in a fixed order (reverse index order when backward, index order
      when forward), and the fixpoint of a monotone transfer is unique
      regardless of visit order. *)
end
