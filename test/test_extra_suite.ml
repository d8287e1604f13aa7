(* Tests for the second (retargeting) application mix. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Extra = Asipfb_bench_suite.Extra
module Value = Asipfb_exec.Value
module Interp = Asipfb_sim.Interp
module Opt_level = Asipfb_sched.Opt_level

let test_all_compile_run_validate () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      Asipfb_ir.Validate.check_exn p;
      let o = Benchmark.run b in
      Alcotest.(check bool) (b.name ^ " does real work") true
        (o.instrs_executed > 500))
    Extra.all

let test_equivalence_across_levels () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      let inputs = b.inputs () in
      let reference = Interp.run p ~inputs in
      List.iter
        (fun level ->
          let s = Asipfb_sched.Schedule.optimize ~level p in
          let o = Interp.run s.prog ~inputs in
          List.iter
            (fun region ->
              let want = Asipfb_exec.Memory.dump reference.memory region in
              let got = Asipfb_exec.Memory.dump o.memory region in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s" b.name
                   (Opt_level.to_string level) region)
                true
                (Array.for_all2 Value.close want got))
            b.output_regions)
        Opt_level.all)
    Extra.all

let test_matmul_correct () =
  (* Differential check against an OCaml matrix multiply on the same
     deterministic inputs. *)
  let b = Extra.matmul in
  let o = Benchmark.run b in
  let inputs = b.inputs () in
  let a_data = List.assoc "a" inputs and b_data = List.assoc "b" inputs in
  let got = Asipfb_exec.Memory.dump o.memory "c" in
  for i = 0 to 7 do
    for j = 0 to 7 do
      let expect = ref 0 in
      for k = 0 to 7 do
        expect :=
          !expect
          + Value.as_int a_data.((i * 8) + k) * Value.as_int b_data.((k * 8) + j)
      done;
      Alcotest.(check int)
        (Printf.sprintf "c[%d][%d]" i j)
        !expect
        (Value.as_int got.((i * 8) + j))
    done
  done

let test_acs_chain_signature () =
  (* The Viterbi kernel must expose its namesake chain. *)
  let a = Asipfb.Pipeline.analyze Extra.acs in
  let ds =
    Asipfb.Pipeline.detect a (Asipfb.Pipeline.Query.make ~length:2 Opt_level.O1)
  in
  Alcotest.(check bool) "add-compare detected" true
    (List.exists
       (fun (d : Asipfb_chain.Detect.detected) ->
         d.classes = [ "add"; "compare" ])
       ds)

let test_matmul_mac_signature () =
  let a = Asipfb.Pipeline.analyze Extra.matmul in
  let ds =
    Asipfb.Pipeline.detect a (Asipfb.Pipeline.Query.make ~length:2 Opt_level.O0)
  in
  match
    List.find_opt
      (fun (d : Asipfb_chain.Detect.detected) ->
        d.classes = [ "multiply"; "add" ])
      ds
  with
  | Some d ->
      Alcotest.(check bool) "MAC dominates even unoptimized" true
        (d.freq > 10.0)
  | None -> Alcotest.fail "matmul without multiply-add"

let test_quant_decisions_valid () =
  let o = Benchmark.run Extra.quant in
  let got = Asipfb_exec.Memory.dump o.memory "assignment" in
  Array.iter
    (fun v ->
      let c = Value.as_int v in
      Alcotest.(check bool) "codeword index in range" true (c >= 0 && c < 8))
    got

let test_retargeted_codegen_on_extra () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      let inputs = b.inputs () in
      let a = Asipfb.Pipeline.analyze b in
      let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
      let choices =
        Asipfb_asip.Select.choose Asipfb_asip.Select.default_config sched
          ~profile:a.profile
      in
      let tp = Asipfb_asip.Codegen.generate_for_choices ~choices p in
      let t_out = Asipfb_asip.Tsim.run tp ~inputs in
      let reference = Interp.run p ~inputs in
      List.iter
        (fun region ->
          Alcotest.(check bool)
            (b.name ^ "/" ^ region ^ " target-equal")
            true
            (Array.for_all2 Value.close
               (Asipfb_exec.Memory.dump reference.memory region)
               (Asipfb_exec.Memory.dump t_out.memory region)))
        b.output_regions;
      Alcotest.(check bool) (b.name ^ " target no slower") true
        (t_out.cycles <= reference.instrs_executed))
    Extra.all

let suite =
  [
    ( "bench_suite.extra",
      [
        Alcotest.test_case "compile/run/validate" `Quick
          test_all_compile_run_validate;
        Alcotest.test_case "equivalence across levels" `Slow
          test_equivalence_across_levels;
        Alcotest.test_case "matmul against OCaml" `Quick test_matmul_correct;
        Alcotest.test_case "acs exposes add-compare" `Quick
          test_acs_chain_signature;
        Alcotest.test_case "matmul exposes MAC" `Quick
          test_matmul_mac_signature;
        Alcotest.test_case "quant decisions valid" `Quick
          test_quant_decisions_valid;
        Alcotest.test_case "retargeted codegen" `Slow
          test_retargeted_codegen_on_extra;
      ] );
  ]
