(* Tests for the retargeted code generator and the ASIP target simulator. *)

module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr
module Prog = Asipfb_ir.Prog
module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Value = Asipfb_exec.Value
module Target = Asipfb_asip.Target
module Codegen = Asipfb_asip.Codegen
module Tsim = Asipfb_asip.Tsim
module Opt_level = Asipfb_sched.Opt_level

let compile src = Lower.compile src ~entry:"main"

let mac_src =
  {|
float x[32];
float y[32];
float out[1];
void main() {
  int i;
  float s = 0.0;
  for (i = 0; i < 32; i++) {
    x[i] = 1.5;
    y[i] = 0.5;
  }
  for (i = 0; i < 32; i++) {
    s = s + x[i] * y[i];
  }
  out[0] = s;
}
|}

let test_of_prog_counts () =
  let p = compile mac_src in
  let tp = Target.of_prog p in
  Alcotest.(check int) "base count matches" (Prog.total_instrs p)
    (Target.base_count tp);
  Alcotest.(check int) "nothing chained" 0 (Target.chained_count tp);
  Alcotest.(check int) "nothing fused" 0 (Target.fused_op_count tp)

let test_plain_target_runs_identically () =
  let p = compile mac_src in
  let ref_out = Interp.run p in
  let t_out = Tsim.run (Target.of_prog p) in
  Alcotest.(check bool) "same out[0]" true
    (Value.close
       (Asipfb_exec.Memory.load ref_out.memory "out" 0)
       (Asipfb_exec.Memory.load t_out.memory "out" 0));
  Alcotest.(check int) "cycles = base dynamic ops" ref_out.instrs_executed
    t_out.cycles;
  Alcotest.(check int) "ops = cycles when nothing chained" t_out.cycles
    t_out.ops_executed

let test_codegen_no_shapes_is_identity_semantics () =
  let p = compile mac_src in
  let tp = Codegen.generate ~shapes:[] p in
  Alcotest.(check int) "no chains" 0 (Target.chained_count tp);
  let ref_out = Interp.run p in
  let t_out = Tsim.run tp in
  Alcotest.(check bool) "reordering preserves output" true
    (Value.close
       (Asipfb_exec.Memory.load ref_out.memory "out" 0)
       (Asipfb_exec.Memory.load t_out.memory "out" 0))

let test_codegen_fuses_mac () =
  let p = compile mac_src in
  let tp = Codegen.generate ~shapes:[ [ "fmultiply"; "fadd" ] ] p in
  Alcotest.(check bool) "at least one chain emitted" true
    (Target.chained_count tp > 0);
  let t_out = Tsim.run tp in
  Alcotest.(check bool) "chains executed" true (t_out.chained_executed > 0);
  Alcotest.(check bool) "cycles below ops" true
    (t_out.cycles < t_out.ops_executed);
  (* Semantics intact. *)
  let ref_out = Interp.run p in
  Alcotest.(check bool) "same result" true
    (Value.close
       (Asipfb_exec.Memory.load ref_out.memory "out" 0)
       (Asipfb_exec.Memory.load t_out.memory "out" 0));
  Alcotest.(check int) "ops equal base dynamic count"
    ref_out.instrs_executed t_out.ops_executed

let test_chains_well_formed () =
  let p = compile mac_src in
  let tp =
    Codegen.generate
      ~shapes:[ [ "fmultiply"; "fadd" ]; [ "fload"; "fmultiply" ];
                [ "add"; "compare" ] ]
      p
  in
  List.iter
    (fun (f : Target.tfunc) ->
      List.iter
        (fun ti ->
          match ti with
          | Target.Chained c ->
              Alcotest.(check bool)
                (c.mnemonic ^ " well formed")
                true
                (Target.chain_well_formed c)
          | Target.Base _ -> ())
        f.t_body)
    tp.t_funcs

let test_longer_shapes_preferred () =
  (* With both the pair and the triple available, the triple should fuse
     where its three members line up. *)
  let src =
    "int a[8]; int out[8]; void main() { int i; for (i = 0; i < 8; i++) { out[i] = a[i] * 3 + i + 1; } }"
  in
  let p = compile src in
  let tp =
    Codegen.generate
      ~shapes:[ [ "multiply"; "add" ]; [ "multiply"; "add"; "add" ] ]
      p
  in
  let has_triple =
    List.exists
      (fun (f : Target.tfunc) ->
        List.exists
          (fun ti ->
            match ti with
            | Target.Chained c -> List.length c.shape = 3
            | Target.Base _ -> false)
          f.t_body)
      tp.t_funcs
  in
  Alcotest.(check bool) "triple fused" true has_triple

let test_single_op_shapes_ignored () =
  let p = compile mac_src in
  let tp = Codegen.generate ~shapes:[ [ "fadd" ] ] p in
  Alcotest.(check int) "length-1 shapes never fuse" 0
    (Target.chained_count tp)

let test_whole_suite_codegen_equivalence () =
  List.iter
    (fun (bench : Asipfb_bench_suite.Benchmark.t) ->
      let p = Asipfb_bench_suite.Benchmark.compile bench in
      let inputs = bench.inputs () in
      let ref_out = Interp.run p ~inputs in
      let a = Asipfb.Pipeline.analyze bench in
      let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
      let choices =
        Asipfb_asip.Select.choose Asipfb_asip.Select.default_config sched
          ~profile:a.profile
      in
      let tp = Codegen.generate_for_choices ~choices p in
      let t_out = Tsim.run tp ~inputs in
      Alcotest.(check int)
        (bench.name ^ " executes the same operations")
        ref_out.instrs_executed t_out.ops_executed;
      List.iter
        (fun region ->
          let want = Asipfb_exec.Memory.dump ref_out.memory region in
          let got = Asipfb_exec.Memory.dump t_out.memory region in
          Alcotest.(check bool)
            (bench.name ^ "/" ^ region ^ " equal")
            true
            (Array.length want = Array.length got
            && Array.for_all2 Value.close want got))
        bench.output_regions;
      Alcotest.(check bool)
        (bench.name ^ " never slower")
        true
        (t_out.cycles <= ref_out.instrs_executed))
    Asipfb_bench_suite.Registry.all

let test_target_pretty_printer () =
  let p = compile mac_src in
  let tp = Codegen.generate ~shapes:[ [ "fmultiply"; "fadd" ] ] p in
  let text = Format.asprintf "%a" Target.pp tp in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else if String.sub text i nn = needle then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "mnemonic printed" true (contains "CHN_FMUL_FADD");
  Alcotest.(check bool) "regions printed" true (contains "region x")

let suite =
  [
    ( "asip.codegen",
      [
        Alcotest.test_case "of_prog counts" `Quick test_of_prog_counts;
        Alcotest.test_case "plain target equivalent" `Quick
          test_plain_target_runs_identically;
        Alcotest.test_case "no shapes, same semantics" `Quick
          test_codegen_no_shapes_is_identity_semantics;
        Alcotest.test_case "fuses MAC" `Quick test_codegen_fuses_mac;
        Alcotest.test_case "chains well-formed" `Quick test_chains_well_formed;
        Alcotest.test_case "longer shapes fuse" `Quick
          test_longer_shapes_preferred;
        Alcotest.test_case "length-1 shapes ignored" `Quick
          test_single_op_shapes_ignored;
        Alcotest.test_case "suite-wide measured equivalence" `Slow
          test_whole_suite_codegen_equivalence;
        Alcotest.test_case "pretty printer" `Quick test_target_pretty_printer;
      ] );
  ]
