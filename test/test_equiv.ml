(* Translation validation: the reference semantics vs the execution core,
   clean schedules proving Refines, and the seeded-mutation adversary. *)

module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Gen = Asipfb_corpus.Gen
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
let original_runs = Hashtbl.create 16

let behavioral_diff ~name ~original ~transformed =
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
        (* The original is the same program in every case of a
           benchmark: replay it once per input. *)
        let original_run =
          match Hashtbl.find_opt original_runs (name, attempt) with
          | Some r -> r
          | None ->
              let r = run original in
              Hashtbl.replace original_runs (name, attempt) r;
              r
        in
        match original_run with
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
      match behavioral_diff ~name:b.name ~original ~transformed:corrupted with
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

(* A swap that moves a definition below its only use, whose result is
   dead: no value obligation reads the now-uninitialized register, yet
   the core traps on it.  The definedness obligation rejects it. *)
let test_uninit_read_rejected () =
  let original = Benchmark.compile (Gen.benchmark ~seed:7 ~index:2 ()) in
  let sched = Schedule.optimize ~level:Opt_level.O0 original in
  let mutant =
    match Mutate.apply ~seed:19 Mutate.Swap_deps sched.prog with
    | Some p -> p
    | None -> Alcotest.fail "no swap-deps site"
  in
  match Equiv.check ~original ~transformed:mutant () with
  | Equiv.Refines -> Alcotest.fail "uninitialized read proved Refines"
  | Equiv.Fails { failures; counterexample } -> (
      Alcotest.(check (list string))
        "failures"
        [ "main.b5: [definedness] t.40 may be read uninitialized at opid 58 \
           [a.0 = and t.39, t.40]" ]
        (List.map Equiv.failure_to_string failures);
      match counterexample with
      | None -> Alcotest.fail "no counterexample"
      | Some cx ->
          Alcotest.(check bool) "ref-confirmed" true cx.Equiv.cx_ref_confirmed;
          Alcotest.(check string)
            "divergence"
            "trace index 10: store m[4] = 0 vs trap: read of uninitialized \
             register t.40"
            cx.Equiv.cx_divergence)

(* Every swap-deps mutant of the first 20 corpus programs whose core run
   differs from the original's is rejected, with a counterexample the
   core confirms. *)
let test_corpus_swap_deps_caught () =
  let run p =
    match Interp.run ~fuel:1_000_000 p with
    | o -> Ok (o.Interp.return_value, dump o.Interp.memory)
    | exception (Interp.Runtime_error _ | Interp.Fuel_exhausted _) -> Error ()
  in
  let differs a b =
    match (a, b) with
    | Ok (ra, ma), Ok (rb, mb) ->
        (not (Option.equal Value.equal ra rb)) || not (dumps_equal ma mb)
    | Ok _, Error () -> true
    | Error (), _ -> false
  in
  List.iter
    (fun index ->
      let b = Gen.benchmark ~seed:7 ~index () in
      let original = Benchmark.compile b in
      let reference = run original in
      List.iter
        (fun level ->
          let sched = Schedule.optimize ~level original in
          for seed = 0 to 19 do
            match Mutate.apply ~seed Mutate.Swap_deps sched.prog with
            | Some mutant when differs reference (run mutant) -> (
                let where =
                  Printf.sprintf "%s %s seed=%d" b.name
                    (Opt_level.to_string level) seed
                in
                match Equiv.check ~original ~transformed:mutant () with
                | Equiv.Fails { counterexample = Some cx; _ }
                  when cx.Equiv.cx_ref_confirmed ->
                    ()
                | Equiv.Fails _ ->
                    Alcotest.failf "%s: no confirmed counterexample" where
                | Equiv.Refines ->
                    Alcotest.failf "%s: observable mutant proved Refines" where
                )
            | Some _ | None -> ()
          done)
        levels)
    (List.init 20 Fun.id)

(* Swap the first adjacent flow-dependent pair of the first benchmark,
   schedule the corrupted program, and check it against the clean
   original: the sink now reads its operand before the definition. *)
let test_corrupted_schedule_flagged () =
  let prog = Benchmark.compile (List.hd Registry.all) in
  let swapped = ref None in
  let rec swap_first = function
    | a :: y :: rest
      when !swapped = None
           && (match Instr.def a with
              | Some d -> List.exists (Reg.equal d) (Instr.uses y)
              | None -> false)
           && (not (Instr.is_control a))
           && not (Instr.is_control y) ->
        swapped := Some (Instr.opid y);
        y :: a :: rest
    | x :: rest -> x :: swap_first rest
    | [] -> []
  in
  let funcs =
    List.map
      (fun (g : Func.t) ->
        if !swapped = None then Func.with_body g (swap_first g.body) else g)
      prog.funcs
  in
  let sink =
    match !swapped with
    | Some opid -> opid
    | None -> Alcotest.fail "no dependent pair to corrupt"
  in
  let corrupted = { prog with Prog.funcs = funcs } in
  let sched = Schedule.optimize ~level:Opt_level.O0 corrupted in
  match Equiv.check ~original:prog ~transformed:sched.prog () with
  | Equiv.Refines -> Alcotest.fail "corrupted schedule proved Refines"
  | Equiv.Fails { failures; _ } as verdict ->
      let needle = Printf.sprintf "at opid %d [" sink in
      let contains s =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
        in
        go 0
      in
      let names_sink (f : Equiv.failure) =
        f.fl_check = "definedness" && contains f.fl_detail
      in
      Alcotest.(check bool)
        (Printf.sprintf "names the read at opid %d" sink)
        true
        (List.exists names_sink failures);
      List.iter
        (fun d ->
          Alcotest.(check bool) "error severity" true
            (Asipfb_diag.Diag.is_error d))
        (Equiv.to_diags verdict)

(* Equiv's failing obligations for seeded corruptions of the fir
   schedule, pinned as (function, block, obligation).  Swap-deps trips
   the definedness obligation beside a value one; drop-copy a cut-edge
   value, retarget-jump the CFG shape. *)
let test_mutated_fir_failures () =
  let prog = Benchmark.compile (Registry.find "fir") in
  let failures level kind seed =
    let sched = Schedule.optimize ~level prog in
    match Mutate.apply ~seed kind sched.prog with
    | None -> Alcotest.fail "no mutation site"
    | Some p -> (
        match Equiv.check ~attempts:0 ~original:prog ~transformed:p () with
        | Equiv.Refines -> []
        | Equiv.Fails { failures; _ } ->
            List.map
              (fun (f : Equiv.failure) ->
                Printf.sprintf "%s.b%s %s" f.fl_func
                  (match f.fl_block with
                  | Some b -> string_of_int b
                  | None -> "-")
                  f.fl_check)
              failures)
  in
  let pin name want got = Alcotest.(check (list string)) name want got in
  pin "O0 swap-deps" [ "design.b5 events"; "design.b5 definedness" ]
    (failures Opt_level.O0 Mutate.Swap_deps 3);
  pin "O1 swap-deps" [ "filter.b5 cut-edge"; "filter.b5 definedness" ]
    (failures Opt_level.O1 Mutate.Swap_deps 3);
  pin "O2 swap-deps" [ "design.b2 terminator"; "design.b1 definedness" ]
    (failures Opt_level.O2 Mutate.Swap_deps 3);
  pin "O2 drop-copy" [ "filter.b7 cut-edge" ]
    (failures Opt_level.O2 Mutate.Drop_copy 3);
  pin "O2 retarget-jump" [ "filter.b6 cfg-shape" ]
    (failures Opt_level.O2 Mutate.Retarget_jump 1);
  pin "O1 retarget-jump" [ "design.b3 cfg-shape" ]
    (failures Opt_level.O1 Mutate.Retarget_jump 3)

(* A transformed program that is correct but far slower than the
   original (more than four times its steps plus 100,000) must not turn
   into a confirmed "ran out of fuel" counterexample: the core replays
   it to completion and finds it equal. *)
let spin_source ~slow_when ~fast_result =
  Printf.sprintf
    {|
int x[2];
int y[2];

void main() {
  int i;
  int s = 0;
  if (%s) {
    for (i = 0; i < 60000; i++) { s = s + 1; }
    y[0] = x[0] + s - s;
  } else {
    y[0] = %s;
  }
}
|}
    slow_when fast_result

let original_of_spin =
  "int x[2];\nint y[2];\n\nvoid main() { y[0] = x[0]; }\n"

let compile src = Asipfb_frontend.Lower.compile src ~entry:"main"

let test_slow_equivalent_not_confirmed () =
  let original = compile original_of_spin in
  let transformed =
    compile (spin_source ~slow_when:"1 == 1" ~fast_result:"x[0]")
  in
  match Equiv.check ~original ~transformed () with
  | Equiv.Refines -> Alcotest.fail "the symbolic check must reject the loop"
  | Equiv.Fails { counterexample = None; _ } -> ()
  | Equiv.Fails { counterexample = Some cx; _ } ->
      Alcotest.failf "slow but equivalent reported at attempt %d: %s"
        cx.Equiv.cx_attempt cx.cx_divergence

(* Slow but correct on the all-zeros attempt, wrong elsewhere: the
   answer is the later input's value divergence, confirmed. *)
let test_slow_attempt_skipped () =
  let original = compile original_of_spin in
  let transformed =
    compile (spin_source ~slow_when:"x[0] == 0" ~fast_result:"x[0] + 1")
  in
  match Equiv.check ~original ~transformed () with
  | Equiv.Fails { counterexample = Some cx; _ } ->
      Alcotest.(check bool) "confirmed" true cx.Equiv.cx_ref_confirmed;
      Alcotest.(check int) "the first non-zero input" 1 cx.cx_attempt;
      Alcotest.(check string)
        "a value divergence" "trace index 0: store y[0] = 46 vs store y[0] = 47"
        cx.cx_divergence
  | _ -> Alcotest.fail "expected a counterexample"

let prop_random_programs_refine =
  QCheck2.Test.make ~name:"optimized random programs refine" ~count:30
    Gen_minic.gen_program (fun src ->
      let original = Asipfb_frontend.Lower.compile src ~entry:"main" in
      List.for_all
        (fun level ->
          let sched = Schedule.optimize ~level original in
          match Equiv.check ~original ~transformed:sched.prog () with
          | Equiv.Refines -> true
          | Equiv.Fails { failures; _ } ->
              QCheck2.Test.fail_reportf "%s: %s"
                (Opt_level.to_string level)
                (String.concat "; "
                   (List.map Equiv.failure_to_string failures)))
        levels)

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
        Alcotest.test_case "swap-deps uninitialized read rejected" `Quick
          test_uninit_read_rejected;
        Alcotest.test_case "corpus swap-deps mutants caught" `Quick
          test_corpus_swap_deps_caught;
        Alcotest.test_case "corrupted schedule flagged" `Quick
          test_corrupted_schedule_flagged;
        Alcotest.test_case "mutated fir failures pinned" `Quick
          test_mutated_fir_failures;
        Alcotest.test_case "slow equivalent program not confirmed" `Quick
          test_slow_equivalent_not_confirmed;
        Alcotest.test_case "slow attempt yields to a value divergence"
          `Quick test_slow_attempt_skipped;
        QCheck_alcotest.to_alcotest prop_random_programs_refine;
      ] );
  ]
