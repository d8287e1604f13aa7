module Detect = Asipfb_chain.Detect
module Chainop = Asipfb_chain.Chainop
module Diag = Asipfb_diag.Diag

type choice = {
  classes : string list;
  freq : float;
  area : float;
  delay : float;
  saved_cycles : int;
}

type config = {
  area_budget : float;
  max_delay : float;
  lengths : int list;
  min_freq : float;
  max_instructions : int;
  uarch : Uarch.t;
}

let default_config =
  {
    area_budget = 30.0;
    max_delay = 1.8;
    lengths = [ 2; 3; 4 ];
    min_freq = 2.0;
    max_instructions = 8;
    uarch = Uarch.flat;
  }

(* Cycles saved if the chain becomes one instruction: its covered dynamic
   ops collapse to the chained cycles.  Latency-weighted: the members
   individually cost their uarch latencies (a 3-cycle multiply absorbed
   into a chain saves more than a 1-cycle add), while the chain costs its
   critical path in whole cycles.  Coverage is taken from the frequency
   (already deduplicated across overlapping occurrences), so savings
   never exceed the cycles actually spent. *)
let savings config ~total (d : Detect.detected) =
  let k = List.length d.classes in
  let covered = d.freq /. 100.0 *. float_of_int total in
  let lat_sum = Uarch.chain_latency config.uarch d.classes in
  let chain_cycles = Uarch.chain_cycles config.uarch d.classes in
  int_of_float
    (covered *. float_of_int (lat_sum - chain_cycles) /. float_of_int k)

(* A candidate that fits the legacy feasibility cutoff but whose cascade
   does not close timing at the uarch's clock: rejected with a structured
   diagnostic naming the offending path. *)
let clock_violation config (d : Detect.detected) =
  let u = config.uarch in
  let delay = Uarch.chain_delay u d.classes in
  Diag.make ~severity:Diag.Warning ~stage:Diag.Selection
    ~context:
      [ ("kind", "clock-violation");
        ("chain", Chainop.sequence_name d.classes);
        ("path", String.concat " -> " d.classes);
        ("delay", Printf.sprintf "%.2f" delay);
        ("clock", Printf.sprintf "%.2f" (Uarch.clock u));
        ("uarch", Uarch.name u) ]
    (Printf.sprintf
       "chain %s critical path %.2f exceeds clock %.2f (uarch %s)"
       (Chainop.sequence_name d.classes) delay (Uarch.clock u) (Uarch.name u))

let candidates config sched ~profile ~banned =
  List.concat_map
    (fun length ->
      let dconfig =
        { (Detect.default_config ~length) with
          min_freq = config.min_freq;
          banned }
      in
      Detect.run dconfig sched ~profile)
    config.lengths
  |> List.filter (fun (d : Detect.detected) ->
         Cost.chain_feasible ~max_delay:config.max_delay d.classes)

let choose_report config sched ~profile =
  let total = Asipfb_exec.Profile.total profile in
  let rejected = ref [] in
  let note_rejected vetoed =
    List.iter
      (fun (d : Detect.detected) ->
        if
          not
            (List.exists
               (fun (classes, _) -> classes = d.classes)
               !rejected)
        then rejected := (d.classes, clock_violation config d) :: !rejected)
      vetoed
  in
  let rec go chosen banned budget remaining =
    if remaining = 0 || budget <= 0.0 then List.rev chosen
    else
      let fits, vetoed =
        candidates config sched ~profile ~banned
        |> List.partition (fun (d : Detect.detected) ->
               Uarch.fits_clock config.uarch d.classes)
      in
      note_rejected vetoed;
      let affordable =
        fits
        |> List.filter (fun (d : Detect.detected) ->
               Cost.chain_area d.classes <= budget
               && not
                    (List.exists
                       (fun c -> c.classes = d.classes)
                       chosen))
      in
      let density (d : Detect.detected) =
        float_of_int (savings config ~total d) /. Cost.chain_area d.classes
      in
      match Asipfb_util.Listx.max_by density affordable with
      | None -> List.rev chosen
      | Some best ->
          let area = Cost.chain_area best.classes in
          let newly_banned =
            List.concat_map
              (fun (o : Detect.occurrence) -> List.map fst o.opids)
              best.occurrences
          in
          let pick =
            {
              classes = best.classes;
              freq = best.freq;
              area;
              delay = Uarch.chain_delay config.uarch best.classes;
              saved_cycles = savings config ~total best;
            }
          in
          go (pick :: chosen) (newly_banned @ banned) (budget -. area)
            (remaining - 1)
  in
  let chosen = go [] [] config.area_budget config.max_instructions in
  (chosen, List.rev_map snd !rejected)

let choose config sched ~profile : choice list =
  fst (choose_report config sched ~profile)
