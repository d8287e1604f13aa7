(* Functions for the dataflow differential tests: every function of the
   12 benchmarks, as compiled and as scheduled at O0–O2, plus the same
   for generated mini-C programs. *)

module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level

(* [(label, func)] for the program and each of its schedules. *)
let original_and_scheduled name (prog : Prog.t) =
  let funcs tag (p : Prog.t) =
    List.map (fun (f : Func.t) -> (Printf.sprintf "%s %s %s" name tag f.name, f))
      p.funcs
  in
  funcs "original" prog
  @ List.concat_map
      (fun level ->
        funcs (Opt_level.to_string level) (Schedule.optimize ~level prog).prog)
      Opt_level.all

(* [(name, program)] for the 12 benchmarks, as compiled. *)
let kernels =
  lazy
    (List.map
       (fun (b : Asipfb_bench_suite.Benchmark.t) ->
         (b.name, Asipfb_bench_suite.Benchmark.compile b))
       Asipfb_bench_suite.Registry.all)

let suite =
  lazy
    (List.concat_map
       (fun (name, prog) -> original_and_scheduled name prog)
       (Lazy.force kernels))

let of_source src =
  original_and_scheduled "generated"
    (Asipfb_frontend.Lower.compile src ~entry:"main")
