(* Integration tests over the packaged pipeline and the experiment
   regeneration — the checks that pin the paper's qualitative results. *)

module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Combine = Asipfb_chain.Combine

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* One shared suite analysis for all tests in this module (deterministic,
   so sharing is safe); computed lazily to keep unrelated test runs fast. *)
let suite_analyses =
  lazy (Asipfb.Pipeline.run_suite ~on_error:`Raise ()).analyses

let test_analyze_shape () =
  let a = Asipfb.Pipeline.analyze (Asipfb_bench_suite.Registry.find "sewha") in
  Alcotest.(check int) "three levels" 3 (List.length a.scheds);
  Alcotest.(check bool) "profile populated" true
    (Asipfb_exec.Profile.total a.profile > 0);
  Alcotest.(check bool) "profile total = executed" true
    (Asipfb_exec.Profile.total a.profile = a.outcome.instrs_executed);
  List.iter
    (fun level -> ignore (Asipfb.Pipeline.sched a level))
    Opt_level.all

let test_detect_via_pipeline () =
  let a = Asipfb.Pipeline.analyze (Asipfb_bench_suite.Registry.find "feowf") in
  let ds =
    Asipfb.Pipeline.detect a (Asipfb.Pipeline.Query.make ~length:2 Opt_level.O1)
  in
  Alcotest.(check bool) "feowf has fmultiply-fadd" true
    (List.exists
       (fun (d : Detect.detected) ->
         d.classes = [ "fmultiply"; "fadd" ])
       ds)

(* --- the paper's headline claims, as assertions -------------------------- *)

let freq_of analyses ~level ~length classes =
  let entries = Asipfb.Experiments.combined analyses ~level ~length in
  match Combine.find entries classes with
  | Some e -> e.combined_freq
  | None -> 0.0

let test_claim_mac_prominent () =
  (* multiply-add must be among the top sequences at every level. *)
  let analyses = Lazy.force suite_analyses in
  List.iter
    (fun level ->
      let f = freq_of analyses ~level ~length:2 [ "multiply"; "add" ] in
      Alcotest.(check bool)
        (Printf.sprintf "multiply-add prominent at %s"
           (Opt_level.to_string level))
        true (f > 5.0))
    Opt_level.all

let test_claim_optimization_exposes_sequences () =
  (* Figure 3's shape: the level-1 curve dominates level 0. *)
  let analyses = Lazy.force suite_analyses in
  let total level =
    Asipfb.Experiments.combined analyses ~level ~length:2
    |> Asipfb_util.Listx.sum_by (fun (e : Combine.entry) -> e.combined_freq)
  in
  Alcotest.(check bool) "O1 total detection above O0" true
    (total Opt_level.O1 > total Opt_level.O0);
  (* And more distinct sequences are visible. *)
  let count level =
    List.length (Asipfb.Experiments.combined analyses ~level ~length:2)
  in
  Alcotest.(check bool) "O1 sees at least as many sequences" true
    (count Opt_level.O1 >= count Opt_level.O0)

let test_claim_add_multiply_exposed_by_pipelining () =
  (* Table 2's add-multiply row: rare in sequential order, much more
     frequent with the parallelizing optimizations. *)
  let analyses = Lazy.force suite_analyses in
  let f0 = freq_of analyses ~level:Opt_level.O0 ~length:2 [ "add"; "multiply" ] in
  let f1 = freq_of analyses ~level:Opt_level.O1 ~length:2 [ "add"; "multiply" ] in
  Alcotest.(check bool) "exposed by optimization" true (f1 > f0)

let test_claim_renaming_hurts_some_chains () =
  (* The paper's register-renaming observation: level 2 loses part of what
     level 1 exposed (total length-2 detection drops). *)
  let analyses = Lazy.force suite_analyses in
  let total level =
    Asipfb.Experiments.combined analyses ~level ~length:2
    |> Asipfb_util.Listx.sum_by (fun (e : Combine.entry) -> e.combined_freq)
  in
  Alcotest.(check bool) "O2 below O1" true
    (total Opt_level.O2 < total Opt_level.O1);
  Alcotest.(check bool) "O2 still above O0" true
    (total Opt_level.O2 > total Opt_level.O0)

let test_claim_coverage_improves () =
  (* Table 3's summary: on the detailed benchmarks, compiler feedback lifts
     coverage on the clear majority. *)
  let analyses = Lazy.force suite_analyses in
  let rows = Asipfb.Experiments.table3_rows analyses in
  Alcotest.(check int) "five detailed benchmarks" 5 (List.length rows);
  let improved =
    List.filter
      (fun (_, variants) ->
        match
          ( List.assoc_opt true variants,
            List.assoc_opt false variants )
        with
        | Some w, Some wo -> w.Asipfb_chain.Coverage.coverage >= wo.coverage
        | _ -> false)
      rows
  in
  Alcotest.(check bool) "majority improved" true (List.length improved >= 3)

let test_claim_ilp_grows () =
  let analyses = Lazy.force suite_analyses in
  List.iter
    (fun (a : Asipfb.Pipeline.analysis) ->
      let s1 = Asipfb.Pipeline.sched a Opt_level.O1 in
      let mean_ilp =
        Asipfb_util.Listx.sum_by
          (fun (f : Asipfb_ir.Func.t) -> Asipfb_sched.Schedule.ilp s1 f.name)
          s1.prog.funcs
        /. float_of_int (List.length s1.prog.funcs)
      in
      Alcotest.(check bool)
        (a.benchmark.name ^ " compaction finds parallelism")
        true (mean_ilp > 1.0))
    analyses

(* --- rendered artifacts --------------------------------------------------- *)

let test_table1_renders () =
  let t = Asipfb.Experiments.table1 () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("mentions " ^ name) true (contains t name))
    Asipfb_bench_suite.Registry.names

let test_table2_renders () =
  let analyses = Lazy.force suite_analyses in
  let t = Asipfb.Experiments.table2 analyses in
  List.iter
    (fun row ->
      Alcotest.(check bool) ("mentions " ^ row) true (contains t row))
    [ "multiply-add"; "add-multiply"; "add-add"; "add-multiply-add";
      "multiply-add-add" ]

let test_figures_render () =
  let analyses = Lazy.force suite_analyses in
  List.iter
    (fun length ->
      let fig = Asipfb.Experiments.figure_combined analyses ~length in
      Alcotest.(check bool) "chart has legend" true
        (contains fig "no optimization");
      let per = Asipfb.Experiments.figure_per_benchmark analyses ~length in
      Alcotest.(check bool) "per-benchmark mentions fir" true
        (contains per "fir"))
    [ 2; 4 ]

let test_table3_renders () =
  let analyses = Lazy.force suite_analyses in
  let t = Asipfb.Experiments.table3 analyses in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("covers " ^ name) true (contains t name))
    [ "sewha"; "feowf"; "bspline"; "edge"; "iir" ]

let test_extension_reports_render () =
  let analyses = Lazy.force suite_analyses in
  let ilp = Asipfb.Experiments.ilp_report analyses in
  Alcotest.(check bool) "ilp has all benchmarks" true (contains ilp "feowf");
  let asip = Asipfb.Experiments.asip_report analyses in
  Alcotest.(check bool) "asip mentions speedup" true (contains asip "speedup");
  let vliw = Asipfb.Experiments.vliw_report analyses in
  Alcotest.(check bool) "vliw has width columns" true (contains vliw "8-issue");
  let resched = Asipfb.Experiments.resched_report analyses in
  Alcotest.(check bool) "resched has both estimates" true
    (contains resched "schedule-level");
  let opmix = Asipfb.Experiments.opmix_report analyses in
  Alcotest.(check bool) "opmix has class columns" true
    (contains opmix "multiply")

let test_ablation_reports_render () =
  let analyses = Lazy.force suite_analyses in
  let a1 = Asipfb.Experiments.ablation_pipelining analyses in
  Alcotest.(check bool) "A1 has totals line" true
    (contains a1 "total detected");
  let a3 = Asipfb.Experiments.ablation_motion analyses in
  Alcotest.(check bool) "A3 has totals line" true
    (contains a3 "total detected")

let test_codegen_report_renders () =
  let analyses = Lazy.force suite_analyses in
  let r = Asipfb.Experiments.codegen_report analyses in
  Alcotest.(check bool) "codegen mentions measured column" true
    (contains r "measured");
  List.iter
    (fun name ->
      Alcotest.(check bool) ("codegen covers " ^ name) true (contains r name))
    Asipfb_bench_suite.Registry.names

let test_extra_report_renders () =
  let analyses = Lazy.force suite_analyses in
  let r = Asipfb.Experiments.extra_report analyses in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("extra covers " ^ name) true (contains r name))
    [ "matmul"; "xcorr"; "acs"; "quant" ]

let suite =
  [
    ( "pipeline",
      [
        Alcotest.test_case "analysis shape" `Quick test_analyze_shape;
        Alcotest.test_case "detect via pipeline" `Quick
          test_detect_via_pipeline;
      ] );
    ( "pipeline.claims",
      [
        Alcotest.test_case "MAC prominent at all levels" `Slow
          test_claim_mac_prominent;
        Alcotest.test_case "optimization exposes sequences" `Slow
          test_claim_optimization_exposes_sequences;
        Alcotest.test_case "add-multiply exposed by pipelining" `Slow
          test_claim_add_multiply_exposed_by_pipelining;
        Alcotest.test_case "renaming hurts some chains" `Slow
          test_claim_renaming_hurts_some_chains;
        Alcotest.test_case "coverage improves with feedback" `Slow
          test_claim_coverage_improves;
        Alcotest.test_case "compaction finds ILP" `Slow test_claim_ilp_grows;
      ] );
    ( "pipeline.artifacts",
      [
        Alcotest.test_case "table1" `Quick test_table1_renders;
        Alcotest.test_case "table2" `Slow test_table2_renders;
        Alcotest.test_case "figures" `Slow test_figures_render;
        Alcotest.test_case "table3" `Slow test_table3_renders;
        Alcotest.test_case "extension reports" `Slow
          test_extension_reports_render;
        Alcotest.test_case "ablation reports" `Slow
          test_ablation_reports_render;
        Alcotest.test_case "codegen report" `Slow test_codegen_report_renders;
        Alcotest.test_case "extra report" `Slow test_extra_report_renders;
      ] );
  ]
