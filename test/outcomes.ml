(* Agreement of two simulation outcomes, for the differential tests of
   the execution core, the degradation ladder and the engine. *)

module Interp = Asipfb_sim.Interp
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile

(* Structural hashtables underlie Profile.t and Memory.t, so agreement is
   checked on their canonical projections (sorted alist, per-region dump),
   never with [=].  Stdlib.compare keeps NaN = NaN. *)
let agree (a : Interp.outcome) (b : Interp.outcome) =
  Stdlib.compare a.return_value b.return_value = 0
  && a.instrs_executed = b.instrs_executed
  && Profile.to_alist a.profile = Profile.to_alist b.profile
  &&
  let ra = Memory.regions a.memory and rb = Memory.regions b.memory in
  ra = rb
  && List.for_all
       (fun r ->
         Stdlib.compare (Memory.dump a.memory r) (Memory.dump b.memory r) = 0)
       ra
