(* Cross-cutting robustness properties on randomly generated programs:
   every stage of the pipeline must run without raising and produce values
   within its documented bounds. *)

module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage

let analyze_random src =
  let p = Lower.compile src ~entry:"main" in
  let o = Interp.run p in
  (p, o.profile)

let prop_detect_total_pipeline =
  QCheck2.Test.make
    ~name:"detection runs cleanly and bounded on random programs" ~count:40
    Gen_minic.gen_program (fun src ->
      let p, profile = analyze_random src in
      List.for_all
        (fun level ->
          let sched = Schedule.optimize ~level p in
          List.for_all
            (fun length ->
              let ds =
                Detect.run (Detect.default_config ~length) sched ~profile
              in
              List.for_all
                (fun (d : Detect.detected) ->
                  d.freq >= 0.0 && d.freq <= 100.0
                  && List.length d.classes = length
                  && d.occurrences <> [])
                ds)
            [ 2; 3 ])
        Opt_level.all)

let prop_coverage_bounded =
  QCheck2.Test.make ~name:"coverage bounded on random programs" ~count:30
    Gen_minic.gen_program (fun src ->
      let p, profile = analyze_random src in
      let sched = Schedule.optimize ~level:Opt_level.O1 p in
      let r = Coverage.analyze Coverage.default_config sched ~profile in
      r.coverage >= 0.0 && r.coverage <= 100.0 +. 1e-6)

let prop_coverage_picks_disjoint =
  QCheck2.Test.make ~name:"coverage picks never repeat a shape" ~count:30
    Gen_minic.gen_program (fun src ->
      let p, profile = analyze_random src in
      let sched = Schedule.optimize ~level:Opt_level.O1 p in
      let r = Coverage.analyze Coverage.default_config sched ~profile in
      let shapes = List.map (fun (pk : Coverage.pick) -> pk.pick_classes) r.picks in
      List.length shapes
      = List.length (Asipfb_util.Listx.dedup ( = ) shapes))

let prop_vliw_scalar_matches_profile =
  QCheck2.Test.make
    ~name:"1-issue VLIW cycles equal dynamic op count" ~count:30
    Gen_minic.gen_program (fun src ->
      let p, profile = analyze_random src in
      let est = Asipfb_sched.Vliw.characterize ~widths:[ 1 ] p ~profile in
      est.scalar_cycles = Asipfb_exec.Profile.total profile)

let prop_codegen_random_equivalence =
  QCheck2.Test.make
    ~name:"codegen with common shapes preserves random programs" ~count:40
    Gen_minic.gen_program (fun src ->
      let p = Lower.compile src ~entry:"main" in
      let shapes =
        [ [ "multiply"; "add" ]; [ "add"; "add" ]; [ "load"; "multiply" ];
          [ "add"; "compare" ]; [ "shift"; "add" ] ]
      in
      let tp = Asipfb_asip.Codegen.generate ~shapes p in
      let reference = Gen_minic.observe p in
      let t_out = Asipfb_asip.Tsim.run tp in
      let got =
        Array.to_list (Asipfb_exec.Memory.dump t_out.memory "out")
        |> List.map Asipfb_exec.Value.to_string
      in
      reference = got)

let prop_unroll_preserves_random_programs =
  QCheck2.Test.make ~name:"unrolling preserves random programs" ~count:40
    Gen_minic.gen_program (fun src ->
      let p = Lower.compile src ~entry:"main" in
      Gen_minic.observe p
      = Gen_minic.observe (Asipfb_sched.Unroll.loop_once p))

let prop_opmix_shares_bounded =
  QCheck2.Test.make ~name:"op-mix shares bounded on random programs"
    ~count:30 Gen_minic.gen_program (fun src ->
      let p, profile = analyze_random src in
      let entries = Asipfb_chain.Opmix.analyze p ~profile in
      let total =
        Asipfb_util.Listx.sum_by
          (fun (e : Asipfb_chain.Opmix.entry) -> e.share)
          entries
      in
      Float.abs (total -. 100.0) < 0.01)

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_detect_total_pipeline;
        QCheck_alcotest.to_alcotest prop_coverage_bounded;
        QCheck_alcotest.to_alcotest prop_coverage_picks_disjoint;
        QCheck_alcotest.to_alcotest prop_vliw_scalar_matches_profile;
        QCheck_alcotest.to_alcotest prop_codegen_random_equivalence;
        QCheck_alcotest.to_alcotest prop_unroll_preserves_random_programs;
        QCheck_alcotest.to_alcotest prop_opmix_shares_bounded;
      ] );
  ]
