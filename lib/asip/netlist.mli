(** Structural netlists for chained functional units.

    The "ASIP design" box of the paper's Figure 1 consumes the analyzer's
    output and synthesizes application-specific hardware; this module
    produces that artifact's skeleton: for each selected chained
    instruction, a small structural netlist — operand ports, one
    functional-unit node per chain member, the forwarding wires between
    them, and the result port — plus a Graphviz rendering of the whole
    extension datapath.

    Nodes carry only their unit class; area is looked up in {!Cost} and
    timing in the machine description ({!Uarch}), so the scalars are
    never duplicated per node. *)

type port = { port_name : string; direction : [ `In | `Out ] }

type node = {
  node_name : string;  (** Unique within the netlist, e.g. "mul0". *)
  unit_class : string;  (** Chain class implemented by this FU. *)
}

type wire = {
  from_end : string;  (** Port or node name. *)
  to_end : string;
  is_forwarding : bool;
      (** True for the combinational chain links (the wires operator
          chaining exists to create). *)
}

type t = {
  netlist_name : string;  (** The chained instruction's mnemonic. *)
  ports : port list;
  nodes : node list;
  wires : wire list;
}

val of_choice : Select.choice -> t
(** Build the netlist of one chained instruction.  Each two-operand unit
    exposes one external operand port (its other input arrives on the
    forwarding wire), except the first unit which exposes two; a chain
    ending in a store exposes no result port. *)

val total_area : t -> float

val critical_delay : ?uarch:Uarch.t -> t -> float
(** Combinational critical path through the cascade under [uarch]
    (default {!Uarch.flat}). *)

val to_dot : t list -> string
(** All chained units as one Graphviz digraph, one cluster per unit. *)

val summary : t list -> string
(** One line per netlist: name, FUs, area, delay (legacy flat timing,
    byte-stable for existing goldens). *)

val timing_summary : uarch:Uarch.t -> t list -> string
(** One line per netlist: critical path, clock, slack, and whether the
    cascade fits the configured clock period. *)
