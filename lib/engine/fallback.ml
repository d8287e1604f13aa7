(* Degradation ladder for simulation: an execution-core failure that is
   not a semantic outcome of the simulated program (not a trap, fuel
   exhaustion, or watchdog abort) falls back to the reference semantics,
   which is slow but shares no code with the core. *)

module Diag = Asipfb_diag.Diag
module Interp = Asipfb_sim.Interp
module Semantics = Asipfb_verify.Semantics

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

let run ?fuel ?inputs ?faults ?fresh_faults ?watchdog
    ?(inject_core_crash = false) ?(benchmark = "?")
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
  | Ok out -> (out, [])
