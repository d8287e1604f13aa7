(* Pipeline tour: every intermediate representation of the study, printed
   for one small kernel — the place to look when you want to see what each
   stage actually does.

   Run with: dune exec examples/pipeline_tour.exe *)

module Opt_level = Asipfb_sched.Opt_level

let kernel =
  {|
int data[16];
int out[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) {
    data[i] = i * 3;
  }
  for (i = 1; i < 16; i++) {
    out[i] = (data[i] + data[i - 1]) >> 1;
  }
}
|}

let banner title = Printf.printf "\n======== %s ========\n" title

let () =
  banner "1. mini-C source";
  print_string kernel;

  banner "2. parsed AST (re-printed)";
  let ast = Asipfb_frontend.Parser.parse kernel in
  Format.printf "%a@." Asipfb_frontend.Ast.pp_program ast;

  banner "3. three-address code";
  let prog = Asipfb_frontend.Lower.compile kernel ~entry:"main" in
  print_endline (Asipfb_ir.Prog.to_string prog);

  banner "4. control-flow graph";
  let f = Asipfb_ir.Prog.find_func prog "main" in
  Format.printf "%a@." Asipfb_cfg.Cfg.pp (Asipfb_cfg.Cfg.build f);

  banner "5. dynamic profile (top ops)";
  let outcome = Asipfb_sim.Interp.run prog in
  let counts = Asipfb_exec.Profile.to_alist outcome.profile in
  let sorted =
    List.sort (fun (_, a) (_, b) -> Int.compare b a) counts
  in
  List.iteri
    (fun rank (opid, count) ->
      if rank < 5 then Printf.printf "  opid %d executed %d times\n" opid count)
    sorted;
  Printf.printf "  total %d dynamic ops\n" (Asipfb_exec.Profile.total outcome.profile);

  banner "6. optimized code (O1: percolation + pipelining)";
  let sched = Asipfb_sched.Schedule.optimize ~level:Opt_level.O1 prog in
  print_endline (Asipfb_ir.Prog.to_string sched.prog);
  Printf.printf "kernels: %d, ILP %.2f ops/cycle\n"
    (List.length (Asipfb_sched.Schedule.func_sched sched "main").kernels)
    (Asipfb_sched.Schedule.ilp sched "main");

  banner "7. detected chainable sequences";
  let ds =
    Asipfb_chain.Detect.run
      (Asipfb_chain.Detect.default_config ~length:2)
      sched ~profile:outcome.profile
  in
  List.iter
    (fun (d : Asipfb_chain.Detect.detected) ->
      Printf.printf "  %-20s %6.2f%%\n"
        (Asipfb_chain.Detect.display_name d)
        d.freq)
    ds;

  banner "8. customized ASIP code (chains fused)";
  let choices =
    Asipfb_asip.Select.choose Asipfb_asip.Select.default_config sched
      ~profile:outcome.profile
  in
  let target = Asipfb_asip.Codegen.generate_for_choices ~choices prog in
  Format.printf "%a@." Asipfb_asip.Target.pp target;

  banner "9. measured on the ASIP";
  let t_out = Asipfb_asip.Tsim.run target in
  Printf.printf
    "%d ops in %d cycles (%d chained): measured speedup %.2fx\n"
    t_out.ops_executed t_out.cycles t_out.chained_executed
    (Asipfb_asip.Tsim.measured_speedup t_out)
