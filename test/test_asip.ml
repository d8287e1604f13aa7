(* ASIP design tests: cost model, selection under budget, speedup math,
   ISA rendering, and the product path (flat cycle identities, pinned
   measured cycles, the output check, estimate-vs-measurement agreement
   under both machine descriptions). *)

module Cost = Asipfb_asip.Cost
module Select = Asipfb_asip.Select
module Speedup = Asipfb_asip.Speedup
module Isa = Asipfb_asip.Isa
module Uarch = Asipfb_asip.Uarch
module Tsim = Asipfb_asip.Tsim
module Codegen = Asipfb_asip.Codegen
module Timing = Asipfb.Timing
module Memory = Asipfb_exec.Memory
module Value = Asipfb_exec.Value
module Profile = Asipfb_exec.Profile
module Diag = Asipfb_diag.Diag
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

(* Analyses are memoized per benchmark: the timing tests below measure
   every kernel under both presets.  Tests must not mutate them. *)
let analysis_memo : (string, Asipfb.Pipeline.analysis) Hashtbl.t =
  Hashtbl.create 16

let analysis_of name =
  match Hashtbl.find_opt analysis_memo name with
  | Some a -> a
  | None ->
      let a = Asipfb.Pipeline.analyze (Registry.find name) in
      Hashtbl.add analysis_memo name a;
      a

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
    (Speedup.estimate ~prog:a.prog choices ~profile:a.profile).saved_cycles
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
  (* Two executed instructions, 600 and 400 times: 1000 flat cycles. *)
  let prog =
    Asipfb_frontend.Lower.compile
      "int out[1]; void main() { int x = 1; out[0] = x + 2; }" ~entry:"main"
  in
  let profile =
    match
      List.concat_map
        (fun (f : Asipfb_ir.Func.t) ->
          List.filter (fun i -> not (Asipfb_ir.Instr.is_label i)) f.body)
        prog.funcs
    with
    | i0 :: i1 :: _ ->
        Profile.of_alist
          [ (Asipfb_ir.Instr.opid i0, 600); (Asipfb_ir.Instr.opid i1, 400) ]
    | _ -> Alcotest.fail "program has fewer than two instructions"
  in
  let choice =
    { Select.classes = [ "multiply"; "add" ]; freq = 0.0; area = 9.4;
      delay = 1.05; saved_cycles = 250 }
  in
  let est = Speedup.estimate ~prog [ choice ] ~profile in
  Alcotest.(check int) "baseline" 1000 est.baseline_cycles;
  Alcotest.(check int) "asip cycles" 750 est.asip_cycles;
  Alcotest.(check (float 1e-9)) "speedup" (1000.0 /. 750.0) est.speedup;
  let none = Speedup.estimate ~prog [] ~profile in
  Alcotest.(check (float 1e-9)) "no choices, no speedup" 1.0 none.speedup;
  (* Savings can never exceed the baseline. *)
  let over =
    { choice with saved_cycles = 5000 }
  in
  let capped = Speedup.estimate ~prog [ over ] ~profile in
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
      let est = (Timing.design (analysis_of name) Opt_level.O1).estimate in
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup in (1, 4]" name)
        true
        (est.speedup >= 1.0 && est.speedup <= 4.0))
    [ "fir"; "sewha"; "smooth" ]

(* --- timing model -------------------------------------------------------- *)

(* Reports are memoized per (benchmark, preset): the cycle pins and the
   property below share them, and a report costs a full target
   simulation. *)
let timing_memo : (string * string, Timing.report) Hashtbl.t =
  Hashtbl.create 8

let timing_report name preset =
  let key = (name, Uarch.name preset) in
  match Hashtbl.find_opt timing_memo key with
  | Some r -> r
  | None ->
      let r =
        Timing.of_analysis ~uarch:preset (analysis_of name) Opt_level.O1
      in
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

(* The fir golden numbers: a change here is a cost-model change, not
   noise. *)
let test_flat_fir_pins () =
  let est = (Timing.design (analysis_of "fir") Opt_level.O1).estimate in
  Alcotest.(check int) "fir flat baseline pinned" 40739 est.baseline_cycles;
  Alcotest.(check int) "fir flat asip pinned" 32882 est.asip_cycles

(* Under flat every op costs one cycle: the estimate's baseline is the
   profile total and the simulator's baseline is the executed op count,
   on programs selected at O1. *)
let prop_flat_baselines_are_op_counts =
  QCheck2.Test.make ~name:"flat baselines are dynamic op counts" ~count:30
    Gen_minic.gen_program (fun src ->
      let prog = Asipfb_frontend.Lower.compile src ~entry:"main" in
      let profile = (Asipfb_sim.Interp.run prog).profile in
      let sched = Asipfb_sched.Schedule.optimize ~level:Opt_level.O1 prog in
      let choices = Select.choose Select.default_config sched ~profile in
      let est = Speedup.estimate ~prog choices ~profile in
      let out = Tsim.run (Codegen.generate_for_choices ~choices prog) in
      est.baseline_cycles = Profile.total profile
      && out.baseline_cycles = out.ops_executed)

(* Measured cycles at O1 of every Table-1 kernel under both presets — the
   [tsim.cycles.*] rows of the benchmark's pins. *)
let measured_cycle_pins =
  [ ("fir", 34334, 45366); ("iir", 3310, 8510); ("pse", 39342, 78317);
    ("intfft", 53562, 97589); ("compress", 2038643, 6335891);
    ("flatten", 12294, 23172); ("smooth", 15260, 16032);
    ("edge", 25089, 30897); ("sewha", 6896, 7640);
    ("dft", 1248005, 4459269); ("bspline", 10645, 12165);
    ("feowf", 8457, 24841) ]

let test_measured_cycles_pinned () =
  List.iter
    (fun (name, flat, risc5) ->
      Alcotest.(check int) (name ^ " flat") flat
        (timing_report name Uarch.flat).t_measured_cycles;
      Alcotest.(check int) (name ^ " risc5") risc5
        (timing_report name Uarch.risc5).t_measured_cycles)
    measured_cycle_pins

(* A target whose outputs differ from the base run is a classified
   verification diagnostic, not a bare failure. *)
let test_output_mismatch_diag () =
  let a = analysis_of "fir" in
  let region = List.hd a.benchmark.output_regions in
  let memory = Memory.create a.prog in
  List.iter
    (fun r -> Memory.seed memory r (Memory.dump a.outcome.memory r))
    (Memory.regions a.outcome.memory);
  Memory.store memory region 0
    (match Memory.load memory region 0 with
    | Value.Vint n -> Value.Vint (n + 1)
    | Value.Vfloat f -> Value.Vfloat (f +. 1000.0));
  let tampered = { a with outcome = { a.outcome with memory } } in
  match Timing.measure tampered (Timing.design tampered Opt_level.O1) with
  | exception Diag.Diag_error d ->
      Alcotest.(check string) "stage" "verification"
        (Diag.stage_to_string d.stage);
      Alcotest.(check (option string)) "kind" (Some "asip-output-mismatch")
        (List.assoc_opt "kind" d.context);
      Alcotest.(check (option string)) "benchmark" (Some "fir")
        (List.assoc_opt "benchmark" d.context);
      Alcotest.(check (option string)) "region" (Some region)
        (List.assoc_opt "region" d.context)
  | _ -> Alcotest.fail "a tampered reference must raise a diagnostic"

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
        Alcotest.test_case "flat fir pins" `Quick test_flat_fir_pins;
        QCheck_alcotest.to_alcotest prop_flat_baselines_are_op_counts;
        Alcotest.test_case "measured cycles pinned" `Slow
          test_measured_cycles_pinned;
        Alcotest.test_case "output mismatch is a diagnostic" `Quick
          test_output_mismatch_diag;
        Alcotest.test_case "pipelined chains fit clock" `Quick
          test_pipelined_chains_fit_clock;
        QCheck_alcotest.to_alcotest prop_estimate_measurement_agree;
      ] );
  ]
