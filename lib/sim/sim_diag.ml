(* Conversion shim: simulator exceptions -> structured diagnostics. *)

module Diag = Asipfb_diag.Diag
module Memory = Asipfb_exec.Memory

let to_diag : exn -> Diag.t option = function
  | Interp.Runtime_error msg ->
      Some
        (Diag.make ~stage:Diag.Simulation ~context:[ ("phase", "interp") ]
           ("runtime error: " ^ msg))
  | Interp.Fuel_exhausted { instrs_executed; fuel } ->
      Some
        (Diag.make ~stage:Diag.Simulation
           ~context:
             [
               ("phase", "interp");
               ("kind", "timeout");
               ("fuel", string_of_int fuel);
               ("instrs_executed", string_of_int instrs_executed);
             ]
           "out of fuel (infinite loop?)")
  | Interp.Watchdog_timeout { instrs_executed } ->
      Some
        (Diag.make ~stage:Diag.Simulation
           ~context:
             [
               ("phase", "watchdog");
               ("kind", "timeout");
               ("instrs_executed", string_of_int instrs_executed);
             ]
           "watchdog timeout: task exceeded its wall-clock budget")
  | Memory.Bounds (region, idx) ->
      Some
        (Diag.make ~stage:Diag.Simulation
           ~context:[ ("region", region); ("index", string_of_int idx) ]
           (Printf.sprintf "memory access out of bounds: %s[%d]" region idx))
  | _ -> None
