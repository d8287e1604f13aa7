(* Degradation ladder for simulation: an execution-core failure that is
   not a semantic outcome of the simulated program (not a trap, fuel
   exhaustion, or watchdog abort) falls back to the reference semantics,
   which is slow but shares no code with the core. *)

module Diag = Asipfb_diag.Diag
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Interp = Asipfb_sim.Interp
module Semantics = Asipfb_verify.Semantics

(* Structural hashtables underlie Profile.t and Memory.t, so agreement is
   checked on their canonical projections (sorted alist, per-region dump),
   never with [=].  Stdlib.compare keeps NaN = NaN. *)
let outcomes_agree (a : Interp.outcome) (b : Interp.outcome) =
  Stdlib.compare a.Interp.return_value b.Interp.return_value = 0
  && a.Interp.instrs_executed = b.Interp.instrs_executed
  && Profile.to_alist a.Interp.profile = Profile.to_alist b.Interp.profile
  &&
  let ra = Memory.regions a.Interp.memory
  and rb = Memory.regions b.Interp.memory in
  ra = rb
  && List.for_all
       (fun r ->
         Stdlib.compare
           (Memory.dump a.Interp.memory r)
           (Memory.dump b.Interp.memory r)
         = 0)
       ra

let reference ?fuel ?inputs ?faults p : Interp.outcome =
  let o = Semantics.run ?fuel ?inputs ?faults p in
  match o.result with
  | Semantics.Returned return_value ->
      { return_value; profile = o.profile; memory = o.memory;
        instrs_executed = o.instrs_executed }
  | Semantics.Trapped m -> raise (Interp.Runtime_error m)
  | Semantics.Out_of_fuel ->
      (* Fuel runs out exactly when the count reaches the (clamped) fuel. *)
      raise
        (Interp.Fuel_exhausted
           { instrs_executed = o.instrs_executed; fuel = o.instrs_executed })

let degraded_diag ~benchmark ~reason =
  Diag.make ~severity:Diag.Warning ~stage:Diag.Simulation
    ~context:
      [ ("phase", "exec-core"); ("kind", "degraded");
        ("fallback", "semantics"); ("benchmark", benchmark) ]
    (Printf.sprintf
       "execution core failed non-semantically (%s); result recomputed on \
        the reference semantics" reason)

let mismatch_diag ~benchmark =
  Diag.make ~severity:Diag.Error ~stage:Diag.Simulation
    ~context:
      [ ("phase", "exec-core"); ("kind", "mismatch");
        ("fallback", "semantics"); ("benchmark", benchmark) ]
    "execution core disagrees with the reference semantics; reference \
     result used"

let run ?fuel ?inputs ?faults ?fresh_faults ?watchdog
    ?(inject_core_crash = false) ?(cross_check = false) ?(benchmark = "?")
    (p : Asipfb_ir.Prog.t) : Interp.outcome * Diag.t list =
  (* A fault injector's corruption stream is stateful: after a crashed or
     completed primary run has consumed draws, the oracle must start from
     an identically seeded injector, hence [fresh_faults]. *)
  let fallback_faults () =
    match fresh_faults with Some f -> Some (f ()) | None -> faults
  in
  let run_reference () =
    reference ?fuel ?inputs ?faults:(fallback_faults ()) p
  in
  let primary =
    try
      if inject_core_crash then
        raise (Assert_failure ("asipfb-chaos-core-crash", 0, 0));
      Ok (Interp.run ?fuel ?inputs ?faults ?watchdog p)
    with
    | ( Interp.Runtime_error _ | Interp.Fuel_exhausted _
      | Interp.Watchdog_timeout _ ) as semantic ->
        (* Semantic outcomes of the simulated program, not core bugs: the
           oracle would only reproduce them slowly. *)
        raise semantic
    | exn -> Error exn
  in
  match primary with
  | Error exn -> (
      let reason = Printexc.to_string exn in
      match run_reference () with
      | recomputed -> (recomputed, [ degraded_diag ~benchmark ~reason ])
      | exception _ ->
          (* The oracle agrees something is wrong; surface the original
             core failure rather than the secondary one. *)
          raise exn)
  | Ok out ->
      if not cross_check then (out, [])
      else
        let expected = run_reference () in
        if outcomes_agree out expected then (out, [])
        else (expected, [ mismatch_diag ~benchmark ])
