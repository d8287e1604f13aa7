module Opt_level = Asipfb_sched.Opt_level
module Uarch = Asipfb_asip.Uarch
module Select = Asipfb_asip.Select
module Speedup = Asipfb_asip.Speedup
module Tsim = Asipfb_asip.Tsim
module Codegen = Asipfb_asip.Codegen
module Isa = Asipfb_asip.Isa
module Diag = Asipfb_diag.Diag
module Memory = Asipfb_exec.Memory
module Value = Asipfb_exec.Value

type chain_report = {
  cr_mnemonic : string;
  cr_classes : string list;
  cr_delay : float;
  cr_slack : float;
  cr_cycles : int;
  cr_latency_sum : int;
}

type report = {
  t_benchmark : string;
  t_level : Opt_level.t;
  t_uarch : string;
  t_clock : float;
  t_baseline_cycles : int;
  t_asip_cycles : int;
  t_estimated_speedup : float;
  t_measured_cycles : int;
  t_measured_speedup : float;
  t_total_area : float;
  t_chains : chain_report list;
  t_rejected : Diag.t list;
}

let uarch_of ?clock name =
  match Uarch.find name with
  | None ->
      Error
        (Printf.sprintf "unknown uarch %S (known: %s)" name
           (String.concat ", " Uarch.names))
  | Some u -> (
      match clock with
      | None -> Ok u
      | Some c ->
          if c <= 0.0 then Error "clock period must be positive"
          else Ok (Uarch.with_clock u ~clock:c))

type design = {
  uarch : Uarch.t;
  choices : Select.choice list;
  rejected : Diag.t list;
  estimate : Speedup.estimate;
}

let design ?(uarch = Uarch.flat) ?area (a : Pipeline.analysis) level =
  let config =
    { Select.default_config with
      uarch;
      area_budget =
        Option.value area ~default:Select.default_config.area_budget }
  in
  let choices, rejected =
    Select.choose_report config (Pipeline.sched a level) ~profile:a.profile
  in
  {
    uarch;
    choices;
    rejected;
    estimate = Speedup.estimate ~uarch ~prog:a.prog choices ~profile:a.profile;
  }

let output_mismatch (a : Pipeline.analysis) region =
  Diag.Diag_error
    (Diag.make ~stage:Diag.Verification
       ~context:
         [ ("kind", "asip-output-mismatch");
           ("benchmark", a.benchmark.name);
           ("region", region) ]
       (Printf.sprintf "ASIP target output differs from the base program: %s/%s"
          a.benchmark.name region))

let measure (a : Pipeline.analysis) d =
  let target = Codegen.generate_for_choices ~choices:d.choices a.prog in
  let out = Tsim.run ~uarch:d.uarch target ~inputs:(a.benchmark.inputs ()) in
  List.iter
    (fun region ->
      let want = Memory.dump a.outcome.memory region in
      let got = Memory.dump out.memory region in
      if
        not
          (Array.length want = Array.length got
          && Array.for_all2 Value.close want got)
      then raise (output_mismatch a region))
    a.benchmark.output_regions;
  out

let of_analysis ?uarch ?area (a : Pipeline.analysis) level =
  let d = design ?uarch ?area a level in
  let out = measure a d in
  let est = d.estimate and uarch = d.uarch in
  {
    t_benchmark = a.benchmark.name;
    t_level = level;
    t_uarch = Uarch.name uarch;
    t_clock = Uarch.clock uarch;
    t_baseline_cycles = est.baseline_cycles;
    t_asip_cycles = est.asip_cycles;
    t_estimated_speedup = est.speedup;
    t_measured_cycles = out.cycles;
    t_measured_speedup = Tsim.measured_speedup out;
    t_total_area = est.total_area;
    t_chains =
      List.map
        (fun (c : Select.choice) ->
          {
            cr_mnemonic = Isa.mnemonic c.classes;
            cr_classes = c.classes;
            cr_delay = Uarch.chain_delay uarch c.classes;
            cr_slack = Uarch.chain_slack uarch c.classes;
            cr_cycles = Uarch.chain_cycles uarch c.classes;
            cr_latency_sum = Uarch.chain_latency uarch c.classes;
          })
        d.choices;
    t_rejected = d.rejected;
  }

let agreement (r : report) =
  if r.t_estimated_speedup <= 0.0 then infinity
  else
    Float.abs (r.t_measured_speedup -. r.t_estimated_speedup)
    /. r.t_estimated_speedup

let agrees r = agreement r <= Speedup.agreement_tolerance

let to_text (r : report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "%s @ %s (uarch %s, clock %.2f): estimated %.2fx, measured %.2fx, \
        area %.1f\n"
       r.t_benchmark (Opt_level.to_string r.t_level) r.t_uarch r.t_clock
       r.t_estimated_speedup r.t_measured_speedup r.t_total_area);
  Buffer.add_string buf
    (Printf.sprintf "  baseline %d cycles -> asip %d (measured %d)\n"
       r.t_baseline_cycles r.t_asip_cycles r.t_measured_cycles);
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-24s delay %4.2f  slack %+5.2f  cycles %d  absorbs %d\n"
           c.cr_mnemonic c.cr_delay c.cr_slack c.cr_cycles c.cr_latency_sum))
    r.t_chains;
  List.iter
    (fun (d : Diag.t) ->
      Buffer.add_string buf (Printf.sprintf "  rejected: %s\n" d.message))
    r.t_rejected;
  Buffer.contents buf
