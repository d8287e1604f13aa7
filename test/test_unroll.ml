(* Loop unrolling tests: semantics, structure, and the unroll-invariance of
   the sequence analysis (the model-validation result). *)

module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Prog = Asipfb_ir.Prog
module Unroll = Asipfb_sched.Unroll
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Combine = Asipfb_chain.Combine

let compile src = Lower.compile src ~entry:"main"

let loop_src =
  "int out[1]; void main() { int i; int s = 0; for (i = 0; i < 9; i++) { s = s + i * 2; } out[0] = s; }"

let test_unroll_preserves_semantics () =
  let p = compile loop_src in
  let p' = Unroll.loop_once p in
  let o = Interp.run p and o' = Interp.run p' in
  Alcotest.(check int) "same sum"
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0))
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o'.memory "out" 0));
  Alcotest.(check bool) "code grew" true
    (Prog.total_instrs p' > Prog.total_instrs p);
  Alcotest.(check bool) "fewer dynamic branches" true
    (o'.instrs_executed < o.instrs_executed + 10)

let test_odd_trip_count () =
  (* 9 iterations with a doubled body: the guard between copies must fire
     on the odd leftover. *)
  let p' = Unroll.loop_once (compile loop_src) in
  let o' = Interp.run p' in
  Alcotest.(check int) "odd trip handled" 72
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o'.memory "out" 0))

let test_zero_trip_count () =
  let src =
    "int out[1]; void main() { int i; out[0] = 5; for (i = 3; i < 0; i++) { out[0] = 9; } }"
  in
  let o' = Interp.run (Unroll.loop_once (compile src)) in
  Alcotest.(check int) "never entered" 5
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o'.memory "out" 0))

let test_unrolled_loop_still_a_kernel () =
  let p' = Unroll.loop_once (compile loop_src) in
  let f = Prog.find_func p' "main" in
  let kernels = Schedule.find_kernels (Asipfb_cfg.Cfg.build f) in
  Alcotest.(check int) "one kernel" 1 (List.length kernels);
  match kernels with
  | [ k ] ->
      Alcotest.(check bool) "kernel spans the doubled body" true
        (List.length k.kernel_blocks > 2)
  | _ -> assert false

let test_branchy_loops_untouched () =
  let src =
    "int out[4]; void main() { int i; for (i = 0; i < 4; i++) { if (i > 1) { out[i] = 1; } else { out[i] = 2; } } }"
  in
  let p = compile src in
  let p' = Unroll.loop_once p in
  Alcotest.(check int) "no growth" (Prog.total_instrs p)
    (Prog.total_instrs p')

let test_suite_equivalence_under_unrolling () =
  List.iter
    (fun (b : Asipfb_bench_suite.Benchmark.t) ->
      let p = Asipfb_bench_suite.Benchmark.compile b in
      let p' = Unroll.loop_once p in
      let inputs = b.inputs () in
      let o = Interp.run p ~inputs and o' = Interp.run p' ~inputs in
      List.iter
        (fun region ->
          Alcotest.(check bool)
            (b.name ^ "/" ^ region)
            true
            (Array.for_all2 Asipfb_exec.Value.close
               (Asipfb_exec.Memory.dump o.memory region)
               (Asipfb_exec.Memory.dump o'.memory region)))
        b.output_regions)
    Asipfb_bench_suite.Registry.all

(* The model-validation result: kernel-based loop-carried detection agrees
   with detection on the physically unrolled program. *)
let test_detection_unroll_invariant () =
  List.iter
    (fun name ->
      let bench = Asipfb_bench_suite.Registry.find name in
      let a = Asipfb.Pipeline.analyze bench in
      let kernel_based =
        Combine.merge_families
          (Asipfb.Pipeline.detect a (Asipfb.Pipeline.Query.make ~length:2 Opt_level.O1))
      in
      let unrolled_prog = Unroll.loop_once a.prog in
      let outcome = Interp.run unrolled_prog ~inputs:(bench.inputs ()) in
      let sched = Schedule.optimize ~level:Opt_level.O1 unrolled_prog in
      let unrolled =
        Combine.merge_families
          (Detect.run (Detect.default_config ~length:2) sched
             ~profile:outcome.profile)
      in
      (* Speculation-derived pairs may legitimately differ: unrolling gives
         loop-exit blocks a second predecessor, which blocks some hoists
         (sewha's add-shift is the known case).  The invariance claim is
         therefore: the dominant kernel-based pairs overwhelmingly
         reappear at similar frequencies. *)
      let dominant =
        List.filter (fun (d : Detect.detected) -> d.freq > 8.0) kernel_based
      in
      let stable =
        List.filter
          (fun (d : Detect.detected) ->
            match
              List.find_opt
                (fun (u : Detect.detected) -> u.classes = d.classes)
                unrolled
            with
            | Some u -> Float.abs (u.freq -. d.freq) < 3.0
            | None -> false)
          dominant
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d of %d dominant pairs stable" name
           (List.length stable) (List.length dominant))
        true
        (dominant = []
        || float_of_int (List.length stable)
             /. float_of_int (List.length dominant)
           >= 0.75);
      (* The flagship carried pair must always survive. *)
      match
        List.find_opt
          (fun (d : Detect.detected) -> d.classes = [ "multiply"; "add" ])
          kernel_based
      with
      | Some d when d.freq > 8.0 ->
          Alcotest.(check bool) (name ^ ": multiply-add survives") true
            (List.exists
               (fun (u : Detect.detected) ->
                 u.classes = [ "multiply"; "add" ]
                 && Float.abs (u.freq -. d.freq) < 3.0)
               unrolled)
      | Some _ | None -> ())
    [ "sewha"; "feowf"; "bspline"; "dft" ]

let suite =
  [
    ( "sched.unroll",
      [
        Alcotest.test_case "preserves semantics" `Quick
          test_unroll_preserves_semantics;
        Alcotest.test_case "odd trip count" `Quick test_odd_trip_count;
        Alcotest.test_case "zero trip count" `Quick test_zero_trip_count;
        Alcotest.test_case "unrolled loop still a kernel" `Quick
          test_unrolled_loop_still_a_kernel;
        Alcotest.test_case "branchy loops untouched" `Quick
          test_branchy_loops_untouched;
        Alcotest.test_case "suite equivalence" `Slow
          test_suite_equivalence_under_unrolling;
        Alcotest.test_case "detection unroll-invariant" `Slow
          test_detection_unroll_invariant;
      ] );
  ]
