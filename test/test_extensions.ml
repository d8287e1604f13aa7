(* Tests for the extension modules: VLIW characterization, scalar cleanup
   passes, and schedule-level rescheduling. *)

module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr
module Builder = Asipfb_ir.Builder
module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Vliw = Asipfb_sched.Vliw
module Cleanup = Asipfb_sched.Cleanup
module Opt_level = Asipfb_sched.Opt_level

let compile src = Lower.compile src ~entry:"main"

(* --- Vliw ---------------------------------------------------------------- *)

let test_machine_construction () =
  let m = Vliw.machine 4 in
  Alcotest.(check int) "width" 4 m.issue_width;
  Alcotest.(check int) "default mem ports" 2 m.mem_ports;
  (match Vliw.machine 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero width rejected");
  Alcotest.(check int) "scalar is 1-wide" 1 Vliw.scalar.issue_width

let test_schedule_block_scalar_is_sequential () =
  let b = Builder.create () in
  let reg name = Builder.fresh_reg b ~ty:Types.Int ~name in
  let x = reg "x" and y = reg "y" and z = reg "z" in
  let ops =
    [| Builder.mov b x (Instr.Imm_int 1);
       Builder.mov b y (Instr.Imm_int 2);
       Builder.binop b Types.Add z (Instr.Reg x) (Instr.Reg y);
    |]
  in
  let _, len1 = Vliw.schedule_block Vliw.scalar ops in
  Alcotest.(check int) "1-issue runs sequentially" 3 len1;
  let _, len4 = Vliw.schedule_block (Vliw.machine 4) ops in
  Alcotest.(check int) "4-issue overlaps the movs" 2 len4

let test_schedule_respects_mem_ports () =
  let b = Builder.create () in
  let reg name = Builder.fresh_reg b ~ty:Types.Int ~name in
  let r1 = reg "a" and r2 = reg "b" and r3 = reg "c" and r4 = reg "d" in
  let ops =
    [| Builder.load b Types.Int r1 "m" (Instr.Imm_int 0);
       Builder.load b Types.Int r2 "m" (Instr.Imm_int 1);
       Builder.load b Types.Int r3 "m" (Instr.Imm_int 2);
       Builder.load b Types.Int r4 "m" (Instr.Imm_int 3);
    |]
  in
  let m = Vliw.machine ~mem_ports:2 8 in
  let _, len = Vliw.schedule_block m ops in
  Alcotest.(check int) "4 loads over 2 ports take 2 cycles" 2 len

let test_schedule_respects_dependences () =
  let b = Builder.create () in
  let reg name = Builder.fresh_reg b ~ty:Types.Int ~name in
  let x = reg "x" and y = reg "y" in
  let ops =
    [| Builder.mov b x (Instr.Imm_int 1);
       Builder.binop b Types.Add y (Instr.Reg x) (Instr.Imm_int 1);
    |]
  in
  let cycles, len = Vliw.schedule_block (Vliw.machine 8) ops in
  Alcotest.(check bool) "consumer after producer" true
    (cycles.(1) > cycles.(0));
  Alcotest.(check int) "chain length 2" 2 len

let test_characterize_monotone () =
  let bench = Asipfb_bench_suite.Registry.find "smooth" in
  let p = Asipfb_bench_suite.Benchmark.compile bench in
  let o = Interp.run p ~inputs:(bench.inputs ()) in
  let est = Vliw.characterize p ~profile:o.profile in
  Alcotest.(check bool) "scalar cycles positive" true (est.scalar_cycles > 0);
  let s2 = Vliw.speedup_at est 2
  and s4 = Vliw.speedup_at est 4
  and s8 = Vliw.speedup_at est 8 in
  Alcotest.(check (float 1e-9)) "width 1 is baseline" 1.0
    (Vliw.speedup_at est 1);
  Alcotest.(check bool) "monotone in width" true (s2 <= s4 +. 1e-9 && s4 <= s8 +. 1e-9);
  Alcotest.(check bool) "real speedup" true (s4 > 1.0);
  match Vliw.speedup_at est 16 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "uncharacterized width must raise"

(* --- Cleanup ------------------------------------------------------------- *)

let observe prog =
  let o = Interp.run prog in
  Array.to_list (Asipfb_exec.Memory.dump o.memory "out")
  |> List.map Asipfb_exec.Value.to_string

let test_constant_fold () =
  (* One folding pass turns literal-only operations into moves... *)
  let p = compile "int out[1]; void main() { out[0] = 2 * 3 + 4; }" in
  let p1 = Prog.map_funcs Cleanup.constant_fold p in
  Asipfb_ir.Validate.check_exn p1;
  Alcotest.(check (list string)) "one pass preserves" (observe p) (observe p1);
  let count_binops prog =
    let f = Prog.find_func prog "main" in
    List.length
      (List.filter
         (fun i ->
           match Instr.kind i with Instr.Binop _ -> true | _ -> false)
         f.Func.body)
  in
  Alcotest.(check bool) "one pass folds something" true
    (count_binops p1 < count_binops p);
  (* ...and the fold/propagate/eliminate fixpoint removes them all. *)
  let p' = Cleanup.run p in
  Alcotest.(check (list string)) "fixpoint preserves" (observe p) (observe p');
  Alcotest.(check int) "no binops left" 0 (count_binops p')

let test_constant_fold_preserves_traps () =
  (* 1/0 must NOT fold into a value — the program must still trap. *)
  let p = compile "int out[1]; void main() { int z = 0; out[0] = 1 / z; }" in
  let p' = Cleanup.run p in
  match Interp.run p' with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero must survive cleanup"

let test_copy_propagation () =
  let src =
    "int out[1]; void main() { int a = 5; int b = a; int c = b; out[0] = c + b; }"
  in
  let p = compile src in
  let p' = Cleanup.run p in
  Alcotest.(check (list string)) "same result" (observe p) (observe p');
  Alcotest.(check bool) "fewer instructions" true
    (Prog.total_instrs p' < Prog.total_instrs p)

let test_dead_code_elimination () =
  let src =
    "int out[1]; void main() { int unused = 3 * 7; int live = 2; out[0] = live; }"
  in
  let p = compile src in
  let p' = Cleanup.run p in
  Alcotest.(check (list string)) "same result" (observe p) (observe p');
  let f = Prog.find_func p' "main" in
  (* Only the live assignment, the store and the return remain. *)
  Alcotest.(check bool) "dead mul removed" true (Func.instr_count f <= 3)

let test_dce_keeps_stores_and_calls () =
  let src =
    "int out[1]; void bump() { out[0] = out[0] + 1; } void main() { bump(); bump(); }"
  in
  let p = compile src in
  let p' = Cleanup.run p in
  let o = Interp.run p' in
  Alcotest.(check int) "side effects kept" 2
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0))

let prop_cleanup_preserves_semantics =
  QCheck2.Test.make ~name:"cleanup preserves observable behaviour" ~count:60
    Gen_minic.gen_program (fun src ->
      let p = compile src in
      Gen_minic.observe p = Gen_minic.observe (Cleanup.run p))

let prop_cleanup_never_grows =
  QCheck2.Test.make ~name:"cleanup never grows programs" ~count:60
    Gen_minic.gen_program (fun src ->
      let p = compile src in
      Prog.total_instrs (Cleanup.run p) <= Prog.total_instrs p)

(* --- Resched -------------------------------------------------------------- *)

let test_resched_estimate () =
  let bench = Asipfb_bench_suite.Registry.find "iir" in
  let a = Asipfb.Pipeline.analyze bench in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  let config = Asipfb_asip.Select.default_config in
  let choices = Asipfb_asip.Select.choose config sched ~profile:a.profile in
  let detections =
    List.concat_map
      (fun length ->
        Asipfb_chain.Detect.run
          { (Asipfb_chain.Detect.default_config ~length) with
            min_freq = config.min_freq }
          sched ~profile:a.profile)
      config.lengths
  in
  let est =
    Asipfb_asip.Resched.estimate sched ~profile:a.profile ~choices ~detections
  in
  Alcotest.(check bool) "base positive" true (est.base_cycles > 0);
  Alcotest.(check bool) "chaining helps or is neutral" true
    (est.chained_cycles <= est.base_cycles);
  Alcotest.(check bool) "speedup >= 1" true (est.speedup >= 1.0);
  (* No choices — no change. *)
  let none =
    Asipfb_asip.Resched.estimate sched ~profile:a.profile ~choices:[]
      ~detections
  in
  Alcotest.(check int) "no chains, same cycles" none.base_cycles
    none.chained_cycles

let suite =
  [
    ( "sched.vliw",
      [
        Alcotest.test_case "machine construction" `Quick
          test_machine_construction;
        Alcotest.test_case "scalar sequential" `Quick
          test_schedule_block_scalar_is_sequential;
        Alcotest.test_case "memory ports" `Quick test_schedule_respects_mem_ports;
        Alcotest.test_case "dependences" `Quick
          test_schedule_respects_dependences;
        Alcotest.test_case "characterization monotone" `Quick
          test_characterize_monotone;
      ] );
    ( "sched.cleanup",
      [
        Alcotest.test_case "constant folding" `Quick test_constant_fold;
        Alcotest.test_case "folding preserves traps" `Quick
          test_constant_fold_preserves_traps;
        Alcotest.test_case "copy propagation" `Quick test_copy_propagation;
        Alcotest.test_case "dead code elimination" `Quick
          test_dead_code_elimination;
        Alcotest.test_case "side effects kept" `Quick
          test_dce_keeps_stores_and_calls;
        QCheck_alcotest.to_alcotest prop_cleanup_preserves_semantics;
        QCheck_alcotest.to_alcotest prop_cleanup_never_grows;
      ] );
    ( "asip.resched",
      [ Alcotest.test_case "estimate" `Quick test_resched_estimate ] );
  ]
