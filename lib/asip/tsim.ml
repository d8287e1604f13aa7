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

(* Uarch weighting, applied after the run from the per-instruction
   profile counters: a single slot's op costs its class latency instead
   of 1, a fused slot costs the chain's critical-path cycles.  Counters
   are per source instruction (copies share one), so both sums walk the
   distinct counter indices, never the slots — and the latency-weighted
   baseline (every op at its own latency, no chaining) comes from the
   same counters.  Under a uarch where every latency is 1 and every
   chain fits one clock, both extras are zero and the cycle count equals
   the core's slot count exactly. *)
let weighted_cycles uarch (code : Code.t) (out : Core.outcome) =
  let counts = out.counts in
  let count p = if p >= 0 && p < Array.length counts then counts.(p) else 0 in
  (* pidx -> (source instruction, appears inside a fused slot) *)
  let seen : (int, Asipfb_ir.Instr.t * bool) Hashtbl.t = Hashtbl.create 64 in
  let fused_extra = ref 0 in
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
                  fused_extra :=
                    !fused_extra
                    + (execs * (Uarch.chain_cycles uarch classes - 1))
              end)
        f.code)
    code.funcs;
  let baseline = ref 0 and single_extra = ref 0 in
  Hashtbl.iter
    (fun pidx (orig, in_fused) ->
      let lat = Uarch.instr_latency uarch orig in
      baseline := !baseline + (count pidx * lat);
      if not in_fused then
        single_extra := !single_extra + (count pidx * (lat - 1)))
    seen;
  (out.cycles + !single_extra + !fused_extra, !baseline)

let run ?(fuel = 50_000_000) ?(inputs = []) ?(uarch = Uarch.flat)
    (tp : Target.tprog) : outcome =
  if
    not
      (List.exists (fun (f : Target.tfunc) -> f.t_name = tp.t_entry) tp.t_funcs)
  then err "entry function %s missing" tp.t_entry;
  try
    let code = compile tp in
    let out = Core.run ~fuel ~inputs code in
    let cycles, baseline_cycles = weighted_cycles uarch code out in
    {
      return_value = out.return_value;
      memory = out.memory;
      cycles;
      baseline_cycles;
      chained_executed = out.fused;
      ops_executed = out.ops;
    }
  with
  | Ops.Trap msg -> raise (Runtime_error msg)
  | Core.Out_of_fuel _ -> raise (Runtime_error "out of fuel (infinite loop?)")

let measured_speedup (o : outcome) =
  if o.cycles = 0 then 1.0
  else float_of_int o.baseline_cycles /. float_of_int o.cycles
