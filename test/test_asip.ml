(* ASIP design tests: cost model, selection under budget, speedup math,
   ISA rendering, and the timing model (flat byte-compatibility,
   estimate-vs-measurement agreement under both machine descriptions). *)

module Cost = Asipfb_asip.Cost
module Select = Asipfb_asip.Select
module Speedup = Asipfb_asip.Speedup
module Isa = Asipfb_asip.Isa
module Uarch = Asipfb_asip.Uarch
module Tsim = Asipfb_asip.Tsim
module Codegen = Asipfb_asip.Codegen
module Timing = Asipfb.Timing
module Registry = Asipfb_bench_suite.Registry
module Opt_level = Asipfb_sched.Opt_level

let test_cost_model () =
  Alcotest.(check bool) "multiplier bigger than adder" true
    (Cost.unit_area "multiply" > Cost.unit_area "add");
  Alcotest.(check bool) "float ops cost more" true
    (Cost.unit_area "fadd" > Cost.unit_area "add");
  Alcotest.(check (float 1e-9)) "chain area adds units plus links"
    (Cost.unit_area "multiply" +. Cost.unit_area "add" +. Cost.link_area)
    (Cost.chain_area [ "multiply"; "add" ]);
  Alcotest.(check (float 1e-9)) "single op has no link overhead"
    (Cost.unit_area "add")
    (Cost.chain_area [ "add" ]);
  Alcotest.(check (float 1e-9)) "delay is additive"
    (Cost.unit_delay "multiply" +. Cost.unit_delay "add")
    (Cost.chain_delay [ "multiply"; "add" ]);
  (match Cost.unit_area "quantum" with
  | exception Asipfb_diag.Diag.Diag_error d ->
      Alcotest.(check (option string)) "diag kind" (Some "unknown-chain-class")
        (List.assoc_opt "kind" d.context)
  | _ -> Alcotest.fail "unknown class must raise a structured diagnostic");
  (match Cost.unit_delay "quantum" with
  | exception Asipfb_diag.Diag.Diag_error d ->
      Alcotest.(check (option string)) "delay diag kind"
        (Some "unknown-chain-class")
        (List.assoc_opt "kind" d.context)
  | _ -> Alcotest.fail "unknown class must raise a structured diagnostic")

let test_feasibility () =
  Alcotest.(check bool) "MAC feasible" true
    (Cost.chain_feasible [ "multiply"; "add" ]);
  Alcotest.(check bool) "divide chains do not fit" false
    (Cost.chain_feasible [ "fdivide"; "fadd" ]);
  Alcotest.(check bool) "five adds too slow at tight clock" false
    (Cost.chain_feasible ~max_delay:1.0
       [ "add"; "add"; "add"; "add"; "add" ]);
  Alcotest.(check bool) "relaxed clock admits them" true
    (Cost.chain_feasible ~max_delay:2.0
       [ "add"; "add"; "add"; "add"; "add" ])

let analysis_of name =
  Asipfb.Pipeline.analyze (Asipfb_bench_suite.Registry.find name)

let test_selection_budget () =
  let a = analysis_of "sewha" in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  List.iter
    (fun budget ->
      let config = { Select.default_config with area_budget = budget } in
      let choices = Select.choose config sched ~profile:a.profile in
      let area =
        Asipfb_util.Listx.sum_by (fun (c : Select.choice) -> c.area) choices
      in
      Alcotest.(check bool)
        (Printf.sprintf "area %.1f within budget %.1f" area budget)
        true (area <= budget))
    [ 5.0; 15.0; 40.0 ]

let test_selection_monotone_in_budget () =
  let a = analysis_of "edge" in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  let saved budget =
    let config = { Select.default_config with area_budget = budget } in
    let choices = Select.choose config sched ~profile:a.profile in
    (Speedup.estimate choices ~profile:a.profile).saved_cycles
  in
  Alcotest.(check bool) "bigger budget saves at least as much" true
    (saved 40.0 >= saved 10.0)

let test_selection_respects_clock () =
  let a = analysis_of "dft" in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  let config = { Select.default_config with max_delay = 1.2 } in
  let choices = Select.choose config sched ~profile:a.profile in
  List.iter
    (fun (c : Select.choice) ->
      Alcotest.(check bool) "delay within clock" true (c.delay <= 1.2))
    choices

let test_selection_no_duplicates () =
  let a = analysis_of "smooth" in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  let choices =
    Select.choose Select.default_config sched ~profile:a.profile
  in
  let shapes = List.map (fun (c : Select.choice) -> c.classes) choices in
  Alcotest.(check int) "shapes unique" (List.length shapes)
    (List.length (Asipfb_util.Listx.dedup ( = ) shapes))

let test_speedup_math () =
  let profile = Asipfb_exec.Profile.of_alist [ (0, 600); (1, 400) ] in
  let choice =
    { Select.classes = [ "multiply"; "add" ]; freq = 0.0; area = 9.4;
      delay = 1.05; saved_cycles = 250 }
  in
  let est = Speedup.estimate [ choice ] ~profile in
  Alcotest.(check int) "baseline" 1000 est.baseline_cycles;
  Alcotest.(check int) "asip cycles" 750 est.asip_cycles;
  Alcotest.(check (float 1e-9)) "speedup" (1000.0 /. 750.0) est.speedup;
  let none = Speedup.estimate [] ~profile in
  Alcotest.(check (float 1e-9)) "no choices, no speedup" 1.0 none.speedup;
  (* Savings can never exceed the baseline. *)
  let over =
    { choice with saved_cycles = 5000 }
  in
  let capped = Speedup.estimate [ over ] ~profile in
  Alcotest.(check bool) "savings capped" true (capped.asip_cycles >= 0)

let test_isa_rendering () =
  Alcotest.(check string) "mnemonic" "CHN_MUL_ADD"
    (Isa.mnemonic [ "multiply"; "add" ]);
  Alcotest.(check string) "float mnemonic" "CHN_FMUL_FADD"
    (Isa.mnemonic [ "fmultiply"; "fadd" ]);
  let shape = Isa.operand_shape [ "multiply"; "add" ] in
  Alcotest.(check bool) "value chains have a destination" true
    (String.length shape > 3 && String.sub shape 0 3 = "rd,");
  let store_shape = Isa.operand_shape [ "fmul"; "fstore" ] in
  Alcotest.(check bool) "store chains have no destination" true
    (String.length store_shape < 3
    || String.sub store_shape 0 3 <> "rd,");
  let rendered =
    Isa.render
      [ { Select.classes = [ "multiply"; "add" ]; freq = 1.0; area = 9.4;
          delay = 1.05; saved_cycles = 10 } ]
  in
  Alcotest.(check bool) "render mentions mnemonic" true
    (let needle = "CHN_MUL_ADD" in
     let nh = String.length rendered and nn = String.length needle in
     let rec go i =
       if i + nn > nh then false
       else if String.sub rendered i nn = needle then true
       else go (i + 1)
     in
     go 0)

let test_end_to_end_speedup_sensible () =
  List.iter
    (fun name ->
      let a = analysis_of name in
      let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
      let choices =
        Select.choose Select.default_config sched ~profile:a.profile
      in
      let est = Speedup.estimate choices ~profile:a.profile in
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup in (1, 4]" name)
        true
        (est.speedup >= 1.0 && est.speedup <= 4.0))
    [ "fir"; "sewha"; "smooth" ]

(* --- timing model -------------------------------------------------------- *)

(* Reports are memoized per (benchmark, preset): the property below
   samples with repetition and a report costs an analysis plus a full
   target simulation. *)
let timing_memo : (string * string, Timing.report) Hashtbl.t =
  Hashtbl.create 8

let timing_report name preset =
  let key = (name, Uarch.name preset) in
  match Hashtbl.find_opt timing_memo key with
  | Some r -> r
  | None ->
      let r = Timing.run ~uarch:preset (Registry.find name) Opt_level.O1 in
      Hashtbl.add timing_memo key r;
      r

(* The counting estimate and the cycle-accurate measurement stay within
   the pinned tolerance on every benchmark, under both the flat and the
   pipelined machine description. *)
let prop_estimate_measurement_agree =
  QCheck.Test.make
    ~name:"estimated speedup agrees with measured (both presets)" ~count:10
    QCheck.(pair (int_range 0 (List.length Registry.all - 1)) bool)
    (fun (i, pipelined) ->
      let b = List.nth Registry.all i in
      let preset = if pipelined then Uarch.risc5 else Uarch.flat in
      let r = timing_report b.name preset in
      if Timing.agrees r then true
      else
        QCheck.Test.fail_reportf
          "%s under %s: estimated %.3fx vs measured %.3fx (tolerance %.0f%%)"
          b.name (Uarch.name preset) r.t_estimated_speedup
          r.t_measured_speedup
          (100.0 *. Speedup.agreement_tolerance))

(* The flat description is byte-compatible with the legacy model: the
   uarch-aware estimator and simulator reproduce the pre-uarch numbers
   field for field, pinned on fir's golden values. *)
let test_flat_matches_legacy () =
  let a = analysis_of "fir" in
  let sched = Asipfb.Pipeline.sched a Opt_level.O1 in
  let choices =
    Select.choose Select.default_config sched ~profile:a.profile
  in
  let legacy = Speedup.estimate choices ~profile:a.profile in
  let flat =
    Speedup.estimate ~uarch:Uarch.flat ~prog:a.prog choices
      ~profile:a.profile
  in
  Alcotest.(check int) "baseline cycles" legacy.baseline_cycles
    flat.baseline_cycles;
  Alcotest.(check int) "saved cycles" legacy.saved_cycles flat.saved_cycles;
  Alcotest.(check int) "asip cycles" legacy.asip_cycles flat.asip_cycles;
  Alcotest.(check (float 1e-12)) "speedup" legacy.speedup flat.speedup;
  Alcotest.(check (float 1e-12)) "total area" legacy.total_area
    flat.total_area;
  (* golden numbers: a change here is a cost-model change, not noise *)
  Alcotest.(check int) "fir flat baseline pinned" 40739
    flat.baseline_cycles;
  Alcotest.(check int) "fir flat asip pinned" 32882 flat.asip_cycles;
  let target = Codegen.generate_for_choices ~choices a.prog in
  let inputs = a.benchmark.inputs () in
  let legacy_out = Tsim.run target ~inputs in
  let flat_out = Tsim.run ~uarch:Uarch.flat target ~inputs in
  Alcotest.(check int) "measured cycles" legacy_out.cycles flat_out.cycles;
  Alcotest.(check int) "measured baseline" legacy_out.baseline_cycles
    flat_out.baseline_cycles;
  Alcotest.(check int) "ops executed" legacy_out.ops_executed
    flat_out.ops_executed

(* Under the pipelined preset every *selected* chain closes timing; the
   candidates that do not are rejected with a structured diagnostic. *)
let test_pipelined_chains_fit_clock () =
  let r = timing_report "fir" Uarch.risc5 in
  List.iter
    (fun (c : Timing.chain_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s slack %.2f non-negative" c.cr_mnemonic
           c.cr_slack)
        true
        (c.cr_slack >= -1e-9))
    r.t_chains;
  List.iter
    (fun (d : Asipfb_diag.Diag.t) ->
      Alcotest.(check (option string)) "rejection kind"
        (Some "clock-violation")
        (List.assoc_opt "kind" d.context))
    r.t_rejected

let suite =
  [
    ( "asip",
      [
        Alcotest.test_case "cost model" `Quick test_cost_model;
        Alcotest.test_case "clock feasibility" `Quick test_feasibility;
        Alcotest.test_case "budget respected" `Quick test_selection_budget;
        Alcotest.test_case "monotone in budget" `Quick
          test_selection_monotone_in_budget;
        Alcotest.test_case "clock respected" `Quick
          test_selection_respects_clock;
        Alcotest.test_case "no duplicate shapes" `Quick
          test_selection_no_duplicates;
        Alcotest.test_case "speedup math" `Quick test_speedup_math;
        Alcotest.test_case "isa rendering" `Quick test_isa_rendering;
        Alcotest.test_case "suite speedups sensible" `Slow
          test_end_to_end_speedup_sensible;
        Alcotest.test_case "flat matches legacy model" `Quick
          test_flat_matches_legacy;
        Alcotest.test_case "pipelined chains fit clock" `Quick
          test_pipelined_chains_fit_clock;
        QCheck_alcotest.to_alcotest prop_estimate_measurement_agree;
      ] );
  ]
