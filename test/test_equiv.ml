(* Translation validation: the reference semantics vs the execution core,
   clean schedules proving Refines, and the seeded-mutation adversary. *)

module Registry = Asipfb_bench_suite.Registry
module Benchmark = Asipfb_bench_suite.Benchmark
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level
module Semantics = Asipfb_verify.Semantics
module Equiv = Asipfb_verify.Equiv
module Mutate = Asipfb_verify.Mutate
module Interp = Asipfb_sim.Interp
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory

let levels = Opt_level.all

let dump m = List.map (fun r -> (r, Memory.dump m r)) (Memory.regions m)

let dumps_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, da) (rb, db) ->
         ra = rb
         && Array.length da = Array.length db
         && Array.for_all2 Value.equal da db)
       a b

(* The small-step semantics must agree with the execution core on every
   benchmark: same return value, same final memory, and a trace that ends
   with the entry function's Return. *)
let test_semantics_matches_core () =
  List.iter
    (fun (b : Benchmark.t) ->
      let prog = Benchmark.compile b in
      let inputs =
        List.map (fun (r, a) -> (r, Array.copy a)) (b.inputs ())
      in
      let sem = Semantics.run ~inputs prog in
      let core =
        Interp.run
          ~inputs:(List.map (fun (r, a) -> (r, Array.copy a)) (b.inputs ()))
          prog
      in
      (match sem.result with
      | Semantics.Returned v ->
          Alcotest.(check bool)
            (b.name ^ ": return value agrees")
            true
            (Option.equal Value.equal v core.Interp.return_value)
      | Semantics.Trapped m -> Alcotest.failf "%s trapped: %s" b.name m
      | Semantics.Out_of_fuel -> Alcotest.failf "%s ran out of fuel" b.name);
      Alcotest.(check bool)
        (b.name ^ ": final memory agrees")
        true
        (dumps_equal (dump sem.memory) (dump core.Interp.memory));
      let returns =
        List.filter
          (function Semantics.Return _ -> true | _ -> false)
          sem.trace
      in
      Alcotest.(check bool)
        (b.name ^ ": trace ends with the entry return")
        true
        (returns <> []
        && match List.rev sem.trace with
          | Semantics.Return _ :: _ -> true
          | _ -> false))
    Registry.all

(* A trapping program must produce a Trapped result whose trace ends in
   the trap event — never an exception. *)
let test_semantics_traps () =
  let prog =
    Asipfb_frontend.Lower.compile
      "void main() { int a; int b; a = 1; b = 0; a = a / b; }" ~entry:"main"
  in
  let out = Semantics.run prog in
  (match out.result with
  | Semantics.Trapped _ -> ()
  | _ -> Alcotest.fail "division by zero must trap");
  match List.rev out.trace with
  | Semantics.Trap _ :: _ -> ()
  | _ -> Alcotest.fail "trace must end with the trap event"

(* The acceptance bar: every benchmark × every level proves Refines. *)
let test_clean_suite_refines () =
  List.iter
    (fun (b : Benchmark.t) ->
      let original = Benchmark.compile b in
      List.iter
        (fun level ->
          let sched = Schedule.optimize ~level original in
          match Equiv.check ~original ~transformed:sched.prog () with
          | Equiv.Refines -> ()
          | Equiv.Fails { failures; _ } ->
              Alcotest.failf "%s at %s: %s" b.name
                (Opt_level.to_string level)
                (String.concat "; "
                   (List.map Equiv.failure_to_string failures)))
        levels)
    Registry.all

(* Behavioral-difference oracle: replay both programs on the reference
   semantics over the checker's own deterministic sample inputs.  The
   checker confirms its counterexamples on the execution core, so the two
   sides of this test share no interpreter.  [Some true] = a divergence
   is observable, [Some false] = all samples agree, with the original
   completing on at least one. *)
let behavioral_diff ~original ~transformed =
  let attempts = List.init 8 Fun.id in
  let observed = ref false in
  let diff =
    List.exists
      (fun attempt ->
        let inputs = Equiv.sample_inputs original ~attempt in
        let run p =
          match Semantics.run ~fuel:2_000_000 ~inputs p with
          | { result = Returned v; memory; _ } -> Ok (v, dump memory)
          | { result = Trapped _ | Out_of_fuel; _ } -> Error ()
        in
        match run original with
        | Error () -> false
        | Ok (ro, mo) -> (
            observed := true;
            match run transformed with
            | Error () -> true
            | Ok (rt, mt) ->
                (not (Option.equal Value.equal ro rt))
                || not (dumps_equal mo mt)))
      attempts
  in
  if diff then Some true else if !observed then Some false else None

(* The QCheck adversary: corrupt a scheduled program and demand that
   (a) whenever the corruption is behaviorally observable on the sample
   inputs, the checker rejects with a counterexample the execution core
   confirms, and (b) whenever the checker proves Refines, no
   sample input observes a difference (soundness). *)
let mutation_gen =
  QCheck.Gen.(
    let* bench_i = int_bound (List.length Registry.all - 1) in
    let* level_i = int_bound (List.length levels - 1) in
    let* kind_i = int_bound (List.length Mutate.all - 1) in
    let* seed = int_bound 0xFFFF in
    return (bench_i, level_i, kind_i, seed))

let mutation_prop (bench_i, level_i, kind_i, seed) =
  let b = List.nth Registry.all bench_i in
  let level = List.nth levels level_i in
  let kind = List.nth Mutate.all kind_i in
  let original = Benchmark.compile b in
  let sched = Schedule.optimize ~level original in
  match Mutate.apply ~seed kind sched.prog with
  | None -> true
  | Some corrupted -> (
      let verdict = Equiv.check ~original ~transformed:corrupted () in
      match behavioral_diff ~original ~transformed:corrupted with
      | Some true -> (
          match verdict with
          | Equiv.Refines ->
              QCheck.Test.fail_reportf
                "%s %s %s seed=%d: observable corruption proved Refines"
                b.name (Opt_level.to_string level)
                (Mutate.kind_to_string kind) seed
          | Equiv.Fails { counterexample = None; _ } ->
              QCheck.Test.fail_reportf
                "%s %s %s seed=%d: rejected but no counterexample found"
                b.name (Opt_level.to_string level)
                (Mutate.kind_to_string kind) seed
          | Equiv.Fails { counterexample = Some cx; _ } ->
              cx.Equiv.cx_ref_confirmed
              || QCheck.Test.fail_reportf
                   "%s %s %s seed=%d: counterexample not confirmed by the core \
                    (%s)"
                   b.name (Opt_level.to_string level)
                   (Mutate.kind_to_string kind) seed cx.Equiv.cx_divergence)
      | Some false | None -> (
          (* Not observable on the samples: the checker may conservatively
             reject, but a Refines verdict is also fine — just re-assert
             soundness explicitly for the Refines case. *)
          match verdict with
          | Equiv.Refines -> true
          | Equiv.Fails _ -> true))

let mutation_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"mutated schedules are caught"
       (QCheck.make mutation_gen) mutation_prop)

(* One pinned corruption end-to-end: fir's O2 schedule with a constant
   edit must be rejected with a counterexample whose inputs replay to a
   real divergence on the reference semantics. *)
let test_pinned_counterexample () =
  let b = List.find (fun (b : Benchmark.t) -> b.name = "fir") Registry.all in
  let original = Benchmark.compile b in
  let sched = Schedule.optimize ~level:Opt_level.O2 original in
  let corrupted =
    match
      List.find_map
        (fun seed -> Mutate.apply ~seed Mutate.Edit_const sched.prog)
        (List.init 16 Fun.id)
    with
    | Some p -> p
    | None -> Alcotest.fail "no edit-const site in fir's O2 schedule"
  in
  (* fir's arithmetic uses every coefficient, so a constant edit must be
     observable; if a chosen site ever becomes dead, pick another seed. *)
  match Equiv.check ~original ~transformed:corrupted () with
  | Equiv.Refines -> Alcotest.fail "corrupted fir schedule proved Refines"
  | Equiv.Fails { counterexample; failures } -> (
      Alcotest.(check bool) "has failures" true (failures <> []);
      match counterexample with
      | None -> Alcotest.fail "no counterexample for corrupted fir"
      | Some cx ->
          Alcotest.(check bool) "ref-confirmed" true cx.Equiv.cx_ref_confirmed;
          let inputs = Equiv.sample_inputs original ~attempt:cx.Equiv.cx_attempt in
          let run p =
            match Semantics.run ~inputs p with
            | { result = Returned v; memory; _ } -> Ok (v, dump memory)
            | { result = Trapped m; _ } -> Error m
            | { result = Out_of_fuel; _ } -> Error "ran out of fuel"
          in
          let diverges =
            match (run original, run corrupted) with
            | Ok (ro, mo), Ok (rt, mt) ->
                (not (Option.equal Value.equal ro rt))
                || not (dumps_equal mo mt)
            | Ok _, Error _ -> true
            | Error m, _ ->
                Alcotest.failf "original trapped on its own inputs: %s" m
          in
          Alcotest.(check bool)
            "counterexample inputs replay to a divergence" true diverges)

(* Equiv's diagnostics carry the machine-readable context the service
   verdict is built from. *)
let test_diag_context () =
  let b = List.nth Registry.all 0 in
  let original = Benchmark.compile b in
  let sched = Schedule.optimize ~level:Opt_level.O1 original in
  match Mutate.apply ~seed:7 Mutate.Retarget_jump sched.prog with
  | None -> () (* no branch to retarget: nothing to assert *)
  | Some corrupted ->
      let diags =
        Equiv.to_diags ~context:[ ("level", "O1") ]
          (Equiv.check ~original ~transformed:corrupted ())
      in
      List.iter
        (fun (d : Asipfb_diag.Diag.t) ->
          Alcotest.(check bool)
            "every diag has a check tag" true
            (List.mem_assoc "check" d.context);
          Alcotest.(check bool)
            "context carries the level" true
            (List.assoc_opt "level" d.context = Some "O1"))
        diags

let suite =
  [
    ( "equiv",
      [
        Alcotest.test_case "semantics agrees with Interp" `Quick
          test_semantics_matches_core;
        Alcotest.test_case "semantics traps structurally" `Quick
          test_semantics_traps;
        Alcotest.test_case "clean 12x3 suite refines" `Quick
          test_clean_suite_refines;
        Alcotest.test_case "pinned corrupted schedule rejected" `Quick
          test_pinned_counterexample;
        Alcotest.test_case "diag context" `Quick test_diag_context;
        mutation_test;
      ] );
  ]
