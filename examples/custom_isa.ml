(* Custom ISA design: close the loop of the paper's Figure 1.

   Given an application mix (here: an image-processing ASIP running
   smooth, edge and flatten), select chained instructions under several
   area budgets, print the resulting ISA extension sheets, and estimate
   the cycle-count speedup each budget buys — the area/performance
   trade-off curve the ASIP designer actually wants.

   Run with: dune exec examples/custom_isa.exe *)

module Opt_level = Asipfb_sched.Opt_level
module Select = Asipfb_asip.Select
module Timing = Asipfb.Timing

let application_mix = [ "smooth"; "edge"; "flatten" ]

(* Merge the three applications into one profile-weighted design problem by
   concatenating their schedules' detections: we select per benchmark, then
   merge identical chain shapes — an instruction chosen for two kernels is
   only paid for once. *)
let () =
  let analyses =
    List.map
      (fun name ->
        Asipfb.Pipeline.analyze (Asipfb_bench_suite.Registry.find name))
      application_mix
  in
  List.iter
    (fun budget ->
      Printf.printf "=== area budget %.0f adder-equivalents ===\n" budget;
      let per_app =
        List.map
          (fun a -> (a, Timing.design ~area:budget a Opt_level.O1))
          analyses
      in
      (* Shared chained units across the mix. *)
      let shapes =
        List.concat_map
          (fun (_, (d : Timing.design)) ->
            List.map (fun (c : Select.choice) -> c.classes) d.choices)
          per_app
        |> Asipfb_util.Listx.dedup (fun a b -> a = b)
      in
      Printf.printf "chained units in the ASIP: %s\n"
        (String.concat ", "
           (List.map Asipfb_asip.Isa.mnemonic shapes));
      List.iter
        (fun ((a : Asipfb.Pipeline.analysis), (d : Timing.design)) ->
          let est = d.estimate in
          Printf.printf "  %-8s %8d -> %8d cycles  speedup %.2fx\n"
            a.benchmark.name est.baseline_cycles est.asip_cycles est.speedup)
        per_app;
      print_newline ())
    [ 10.0; 20.0; 40.0 ]
