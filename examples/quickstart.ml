(* Quickstart: the full compiler-feedback loop on one user-supplied kernel.

   Compile a mini-C program, profile it on sample data, optimize it with the
   parallelizing transformations, and ask the analyzer which operation
   pairs deserve a chained instruction.

   Run with: dune exec examples/quickstart.exe *)

let kernel_source =
  {|
float signal[128];
float weights[16];
float result[128];

void main() {
  int n;
  int k;
  for (k = 0; k < 16; k++) {
    weights[k] = 1.0 / (float)(k + 1);
  }
  for (n = 15; n < 128; n++) {
    float acc = 0.0;
    for (k = 0; k < 16; k++) {
      acc = acc + weights[k] * signal[n - k];
    }
    result[n] = acc;
  }
}
|}

let () =
  (* Step 1: front end — mini-C to 3-address code. *)
  let prog = Asipfb_frontend.Lower.compile kernel_source ~entry:"main" in
  Printf.printf "compiled: %d three-address instructions\n"
    (Asipfb_ir.Prog.total_instrs prog);

  (* Step 2: simulate on sample data to collect the dynamic profile. *)
  let inputs =
    [ ("signal", Asipfb_bench_suite.Data.float_signal ~seed:42 ~len:128) ]
  in
  let outcome = Asipfb_sim.Interp.run prog ~inputs in
  Printf.printf "profiled: %d dynamic operations\n" outcome.instrs_executed;

  (* Step 3: optimize — percolation scheduling + loop pipelining. *)
  let sched =
    Asipfb_sched.Schedule.optimize ~level:Asipfb_sched.Opt_level.O1 prog
  in

  (* Step 4: detect chainable sequences, weighted by the profile. *)
  let detections =
    Asipfb_chain.Detect.run
      (Asipfb_chain.Detect.default_config ~length:2)
      sched ~profile:outcome.profile
  in
  print_endline "chainable pairs (dynamic frequency):";
  List.iter
    (fun (d : Asipfb_chain.Detect.detected) ->
      Printf.printf "  %-24s %6.2f%%\n"
        (Asipfb_chain.Detect.display_name d)
        d.freq)
    detections;

  (* The designer's takeaway: what would a chained instruction buy? *)
  let choices =
    Asipfb_asip.Select.choose Asipfb_asip.Select.default_config sched
      ~profile:outcome.profile
  in
  let estimate =
    Asipfb_asip.Speedup.estimate ~prog choices ~profile:outcome.profile
  in
  print_string (Asipfb_asip.Isa.render choices);
  Printf.printf "estimated speedup: %.2fx for %.1f adder-equivalents\n"
    estimate.speedup estimate.total_area
