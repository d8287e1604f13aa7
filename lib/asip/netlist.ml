type port = { port_name : string; direction : [ `In | `Out ] }

(* Nodes carry only their unit class: area and delay are looked up in the
   cost model / machine description, never duplicated per node. *)
type node = { node_name : string; unit_class : string }

type wire = { from_end : string; to_end : string; is_forwarding : bool }

type t = {
  netlist_name : string;
  ports : port list;
  nodes : node list;
  wires : wire list;
}

let short_node cls idx =
  let base =
    match cls with
    | "multiply" | "fmultiply" -> "mul"
    | "add" | "fadd" -> "add"
    | "subtract" | "fsub" -> "sub"
    | "divide" | "fdivide" -> "div"
    | "compare" | "fcompare" -> "cmp"
    | "load" | "fload" -> "ld"
    | "store" | "fstore" -> "st"
    | "shift" -> "shf"
    | "logic" -> "log"
    | other -> other
  in
  Printf.sprintf "%s%d" base idx

let is_store cls = cls = "store" || cls = "fstore"

let of_choice (c : Select.choice) : t =
  let nodes =
    List.mapi
      (fun idx cls -> { node_name = short_node cls idx; unit_class = cls })
      c.classes
  in
  (* Operand ports: two for the first unit, one extra per later unit (its
     other input rides the forwarding wire). *)
  let in_ports =
    List.concat
      (List.mapi
         (fun idx _ ->
           if idx = 0 then
             [ { port_name = "op_a"; direction = `In };
               { port_name = "op_b"; direction = `In } ]
           else
             [ { port_name = Printf.sprintf "op_%c" (Char.chr (Char.code 'b' + idx));
                 direction = `In } ])
         nodes)
  in
  let ends_in_store =
    match List.rev c.classes with
    | last :: _ -> is_store last
    | [] -> false
  in
  let out_ports =
    if ends_in_store then [] else [ { port_name = "result"; direction = `Out } ]
  in
  let operand_wires =
    List.concat
      (List.mapi
         (fun idx (n : node) ->
           if idx = 0 then
             [ { from_end = "op_a"; to_end = n.node_name; is_forwarding = false };
               { from_end = "op_b"; to_end = n.node_name; is_forwarding = false } ]
           else
             [ { from_end =
                   Printf.sprintf "op_%c" (Char.chr (Char.code 'b' + idx));
                 to_end = n.node_name;
                 is_forwarding = false } ])
         nodes)
  in
  let forwarding_wires =
    Asipfb_util.Listx.pairs nodes
    |> List.map (fun ((a : node), (b : node)) ->
           { from_end = a.node_name; to_end = b.node_name; is_forwarding = true })
  in
  let result_wires =
    match (List.rev nodes, ends_in_store) with
    | last :: _, false ->
        [ { from_end = last.node_name; to_end = "result"; is_forwarding = false } ]
    | _, _ -> []
  in
  {
    netlist_name = Isa.mnemonic c.classes;
    ports = in_ports @ out_ports;
    nodes;
    wires = operand_wires @ forwarding_wires @ result_wires;
  }

let total_area t =
  Asipfb_util.Listx.sum_by (fun n -> Cost.unit_area n.unit_class) t.nodes

let critical_delay ?(uarch = Uarch.flat) t =
  Asipfb_util.Listx.sum_by
    (fun n -> Uarch.unit_delay uarch n.unit_class)
    t.nodes

let to_dot nets =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph asip_extension {\n  rankdir=LR;\n";
  List.iteri
    (fun i t ->
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%s\";\n" i
           t.netlist_name);
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "    \"%d_%s\" [label=\"%s\" shape=%s];\n" i
               p.port_name p.port_name
               (match p.direction with `In -> "plaintext" | `Out -> "plaintext")))
        t.ports;
      List.iter
        (fun n ->
          Buffer.add_string buf
            (Printf.sprintf
               "    \"%d_%s\" [label=\"%s\\n(%s)\" shape=box];\n" i
               n.node_name n.node_name n.unit_class))
        t.nodes;
      List.iter
        (fun w ->
          Buffer.add_string buf
            (Printf.sprintf "    \"%d_%s\" -> \"%d_%s\"%s;\n" i w.from_end i
               w.to_end
               (if w.is_forwarding then " [penwidth=2 color=red]" else "")))
        t.wires;
      Buffer.add_string buf "  }\n")
    nets;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary nets =
  String.concat ""
    (List.map
       (fun t ->
         Printf.sprintf "%-28s %d FUs  area %5.1f  delay %4.2f\n"
           t.netlist_name (List.length t.nodes) (total_area t)
           (critical_delay t))
       nets)

let timing_summary ~uarch nets =
  let clock = Uarch.clock uarch in
  String.concat ""
    (List.map
       (fun t ->
         let delay = critical_delay ~uarch t in
         let slack = clock -. delay in
         Printf.sprintf "%-28s delay %4.2f  clock %4.2f  slack %+5.2f  %s\n"
           t.netlist_name delay clock slack
           (if slack >= -1e-9 then "fits" else "VIOLATES"))
       nets)
