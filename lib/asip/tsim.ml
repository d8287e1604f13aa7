module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Ops = Asipfb_exec.Ops
module Code = Asipfb_exec.Code
module Core = Asipfb_exec.Core
module Chainop = Asipfb_chain.Chainop

exception Runtime_error of string

type outcome = {
  return_value : Value.t option;
  memory : Memory.t;
  cycles : int;
  baseline_cycles : int;
  chained_executed : int;
  ops_executed : int;
}

let err fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

(* The only simulator logic Tsim owns is the translation of chained
   dispatch into the core's slot model: a Base instruction is one slot, a
   Chained instruction one Fused slot whose members execute in order
   within the single cycle the slot costs.  Base-op semantics live
   entirely in the shared execution core. *)
let compile (tp : Target.tprog) : Code.t =
  Code.compile
    ~funcs:
      (List.map
         (fun (f : Target.tfunc) ->
           {
             Code.src_name = f.t_name;
             src_params = f.t_params;
             src_body =
               List.map
                 (function
                   | Target.Base i -> Code.Ione i
                   | Target.Chained c -> Code.Igroup c.members)
                 f.t_body;
           })
         tp.t_funcs)
    ~regions:tp.t_regions ~entry:tp.t_entry

(* An execution keeps what the uarch weighting reads of a run, and
   nothing of the compiled code: one entry per distinct profile counter
   (counters are per source instruction, so copies share one) with its
   source instruction, count and whether it appears inside a fused slot,
   and one entry per executed fused slot with member classes. *)
type execution = {
  x_return_value : Value.t option;
  x_memory : Memory.t;
  x_slots : int;  (* executed slots, a fused one counting one *)
  x_fused : int;
  x_ops : int;
  x_counted : (Asipfb_ir.Instr.t * int * bool) array;
      (* (instruction, executions, inside a fused slot) per counter *)
  x_groups : (string list * int) array;
      (* (member classes, executions) per executed classed fused slot *)
}

let summarise (code : Code.t) (out : Core.outcome) =
  let counts = out.counts in
  let count p = if p >= 0 && p < Array.length counts then counts.(p) else 0 in
  (* pidx -> (source instruction, appears inside a fused slot) *)
  let seen : (int, Asipfb_ir.Instr.t * bool) Hashtbl.t = Hashtbl.create 64 in
  let groups = ref [] in
  Array.iter
    (fun (f : Code.cfunc) ->
      Array.iter
        (function
          | Code.Single (op : Code.op) ->
              if not (Hashtbl.mem seen op.pidx) then
                Hashtbl.replace seen op.pidx (op.orig, false)
          | Code.Fused ops ->
              Array.iter
                (fun (op : Code.op) ->
                  Hashtbl.replace seen op.pidx (op.orig, true))
                ops;
              let classes =
                Array.to_list ops
                |> List.filter_map (fun (op : Code.op) ->
                       Chainop.class_of op.orig)
              in
              if classes <> [] then begin
                (* Every member executes once per slot execution; the
                   min is robust if a counter is shared with a copy
                   elsewhere. *)
                let execs =
                  Array.fold_left
                    (fun acc (op : Code.op) -> min acc (count op.pidx))
                    max_int ops
                in
                if execs > 0 && execs < max_int then
                  groups := (classes, execs) :: !groups
              end)
        f.code)
    code.funcs;
  {
    x_return_value = out.return_value;
    x_memory = out.memory;
    x_slots = out.cycles;
    x_fused = out.fused;
    x_ops = out.ops;
    x_counted =
      Array.of_seq
        (Seq.map
           (fun (pidx, (orig, in_fused)) -> (orig, count pidx, in_fused))
           (Hashtbl.to_seq seen));
    x_groups = Array.of_list !groups;
  }

let execute ?(fuel = 50_000_000) ?(inputs = []) (tp : Target.tprog) =
  if
    not
      (List.exists (fun (f : Target.tfunc) -> f.t_name = tp.t_entry) tp.t_funcs)
  then err "entry function %s missing" tp.t_entry;
  try
    let code = compile tp in
    summarise code (Core.run ~fuel ~inputs code)
  with
  | Ops.Trap msg -> raise (Runtime_error msg)
  | Core.Out_of_fuel _ -> raise (Runtime_error "out of fuel (infinite loop?)")

(* Uarch weighting, applied to an execution's counters: a single slot's
   op costs its class latency instead of 1, a fused slot costs the
   chain's critical-path cycles, and the latency-weighted baseline
   (every op at its own latency, no chaining) comes from the same
   counters.  Under a uarch where every latency is 1 and every chain
   fits one clock, both extras are zero and the cycle count equals the
   core's slot count exactly. *)
let weigh ?(uarch = Uarch.flat) x =
  let baseline = ref 0 and single_extra = ref 0 and fused_extra = ref 0 in
  Array.iter
    (fun (orig, count, in_fused) ->
      let lat = Uarch.instr_latency uarch orig in
      baseline := !baseline + (count * lat);
      if not in_fused then single_extra := !single_extra + (count * (lat - 1)))
    x.x_counted;
  Array.iter
    (fun (classes, execs) ->
      fused_extra :=
        !fused_extra + (execs * (Uarch.chain_cycles uarch classes - 1)))
    x.x_groups;
  {
    return_value = x.x_return_value;
    memory = x.x_memory;
    cycles = x.x_slots + !single_extra + !fused_extra;
    baseline_cycles = !baseline;
    chained_executed = x.x_fused;
    ops_executed = x.x_ops;
  }

let run ?fuel ?inputs ?uarch tp = weigh ?uarch (execute ?fuel ?inputs tp)

let measured_speedup (o : outcome) =
  if o.cycles = 0 then 1.0
  else float_of_int o.baseline_cycles /. float_of_int o.cycles
