module Prog = Asipfb_ir.Prog
module Ops = Asipfb_exec.Ops
module Code = Asipfb_exec.Code
module Core = Asipfb_exec.Core
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Fault = Asipfb_exec.Fault

exception Runtime_error of string
exception Fuel_exhausted of { instrs_executed : int; fuel : int }
exception Watchdog_timeout of { instrs_executed : int }

type outcome = {
  return_value : Value.t option;
  profile : Profile.t;
  memory : Memory.t;
  instrs_executed : int;
}

let eval_binop op a b =
  try Ops.eval_binop op a b with Ops.Trap msg -> raise (Runtime_error msg)

let eval_unop op a =
  try Ops.eval_unop op a with Ops.Trap msg -> raise (Runtime_error msg)

let run ?(fuel = 50_000_000) ?(inputs = []) ?faults ?watchdog
    (p : Prog.t) : outcome =
  try
    let code = Code.of_prog p in
    let fuel =
      match faults with Some f -> Fault.clamp_fuel f fuel | None -> fuel
    in
    let (out : Core.outcome) = Core.run ~fuel ~inputs ?faults ?watchdog code in
    {
      return_value = out.return_value;
      profile = Core.profile_of_counts code out.counts;
      memory = out.memory;
      instrs_executed = out.ops;
    }
  with
  | Ops.Trap msg -> raise (Runtime_error msg)
  | Core.Out_of_fuel { executed; fuel } ->
      raise (Fuel_exhausted { instrs_executed = executed; fuel })
  | Core.Watchdog_abort { executed } ->
      raise (Watchdog_timeout { instrs_executed = executed })
