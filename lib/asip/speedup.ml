type chain_timing = {
  ct_classes : string list;
  ct_delay : float;
  ct_slack : float;
}

type estimate = {
  baseline_cycles : int;
  saved_cycles : int;
  asip_cycles : int;
  speedup : float;
  total_area : float;
  uarch_name : string;
  clock : float;
  chain_timings : chain_timing list;
}

(* Tsim's measured speedup and this estimate price the same machine from
   opposite ends (counting vs. execution); the test suite and the timing
   smoke pin their agreement within this bound.  The estimate is
   systematically optimistic — static per-chain savings assume every
   profiled occurrence fuses, while the simulator only realizes the
   occurrences the schedule actually emits — so the bound is one-sided
   in practice; 0.50 covers the worst of the Table 1 suite (bspline
   under risc5, 0.46) with margin. *)
let agreement_tolerance = 0.50

(* Latency-weighted dynamic cycles of the base program: each executed
   instruction costs its uarch latency.  Under [flat] every latency is 1,
   so this equals the profile total exactly. *)
let weighted_baseline uarch (prog : Asipfb_ir.Prog.t) ~profile =
  List.fold_left
    (fun acc (f : Asipfb_ir.Func.t) ->
      List.fold_left
        (fun acc i ->
          acc
          + Asipfb_exec.Profile.count profile ~opid:(Asipfb_ir.Instr.opid i)
            * Uarch.instr_latency uarch i)
        acc f.body)
    0 prog.funcs

let estimate ?(uarch = Uarch.flat) ~prog (choices : Select.choice list)
    ~profile =
  let baseline_cycles = weighted_baseline uarch prog ~profile in
  let saved_cycles =
    List.fold_left (fun acc (c : Select.choice) -> acc + c.saved_cycles) 0
      choices
  in
  let saved_cycles = min saved_cycles baseline_cycles in
  let asip_cycles = baseline_cycles - saved_cycles in
  {
    baseline_cycles;
    saved_cycles;
    asip_cycles;
    speedup =
      (if asip_cycles = 0 then 1.0
       else float_of_int baseline_cycles /. float_of_int asip_cycles);
    total_area =
      Asipfb_util.Listx.sum_by (fun (c : Select.choice) -> c.area) choices;
    uarch_name = Uarch.name uarch;
    clock = Uarch.clock uarch;
    chain_timings =
      List.map
        (fun (c : Select.choice) ->
          {
            ct_classes = c.classes;
            ct_delay = Uarch.chain_delay uarch c.classes;
            ct_slack = Uarch.chain_slack uarch c.classes;
          })
        choices;
  }
