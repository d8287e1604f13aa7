module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Combine = Asipfb_chain.Combine
module Coverage = Asipfb_chain.Coverage
module Chainop = Asipfb_chain.Chainop
module Table = Asipfb_report.Table
module Chart = Asipfb_report.Chart
module Metrics = Asipfb_engine.Metrics

type suite = Pipeline.analysis list

(* Family-merge each benchmark's detections and combine them with equal
   weights: the one loop behind every combined variant of the study. *)
let combine suite detections =
  Combine.equal_weight
    (List.map
       (fun (a : Pipeline.analysis) ->
         (a.benchmark.name, Combine.merge_families (detections a)))
       suite)

let freq_in entries classes =
  match Combine.find entries classes with
  | Some e -> e.Combine.combined_freq
  | None -> 0.0

let table1 () =
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        [ b.name;
          string_of_int (Benchmark.source_lines b);
          b.description;
          b.data_input ])
      Registry.all
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Left; Table.Left ]
    ~headers:[ "Benchmark"; "Lines"; "Description"; "Data Input" ]
    ~rows ()

let combined suite ~level ~length =
  combine suite (fun a ->
      Pipeline.detect a (Pipeline.Query.make ~length ~min_freq:0.5 level))

let figure_combined suite ~length =
  let curves =
    List.map
      (fun level ->
        let entries = combined suite ~level ~length in
        ( Opt_level.description level,
          List.map (fun (e : Combine.entry) -> e.combined_freq) entries ))
      Opt_level.all
  in
  let chart =
    Chart.line
      ~title:
        (Printf.sprintf
           "Length %d sequences: dynamic frequency by rank (all benchmarks)"
           length)
      ~series:curves ()
  in
  let tops =
    List.map
      (fun level ->
        let entries = combined suite ~level ~length in
        let top =
          Asipfb_util.Listx.take 5 entries
          |> List.map (fun (e : Combine.entry) ->
                 Printf.sprintf "%s %.2f%%"
                   (Chainop.sequence_name e.classes)
                   e.combined_freq)
        in
        Printf.sprintf "  %s top: %s"
          (Opt_level.to_string level)
          (String.concat ", " top))
      Opt_level.all
  in
  chart ^ String.concat "\n" tops ^ "\n"

let table2_sequences =
  [ [ "multiply"; "add" ];
    [ "add"; "multiply" ];
    [ "add"; "add" ];
    [ "add"; "multiply"; "add" ];
    [ "multiply"; "add"; "add" ] ]

let table2_rows suite =
  let freq_at level classes =
    freq_in (combined suite ~level ~length:(List.length classes)) classes
  in
  List.map
    (fun classes ->
      ( Chainop.sequence_name classes,
        freq_at Opt_level.O0 classes,
        freq_at Opt_level.O1 classes,
        freq_at Opt_level.O2 classes ))
    table2_sequences

let table2 suite =
  let rows =
    List.map
      (fun (name, f0, f1, f2) ->
        [ name; Table.fmt_pct f0; Table.fmt_pct f1; Table.fmt_pct f2 ])
      (table2_rows suite)
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~headers:[ "Operation Sequence"; "level 0"; "level 1"; "level 2" ]
    ~rows ()

let per_benchmark suite ~level ~length ~min_freq =
  List.map
    (fun (a : Pipeline.analysis) ->
      ( a.benchmark.name,
        Pipeline.detect a (Pipeline.Query.make ~length ~min_freq level) ))
    suite

let figure_per_benchmark suite ~length =
  let per_bench =
    per_benchmark suite ~level:Opt_level.O1 ~length ~min_freq:5.0
  in
  let sections =
    List.map
      (fun (name, ds) ->
        let items =
          List.map
            (fun (d : Detect.detected) -> (Detect.display_name d, d.freq))
            ds
        in
        if items = [] then Printf.sprintf "%s: (none above 5%%)\n" name
        else Chart.bars ~title:name ~items ())
      per_bench
  in
  Printf.sprintf
    "Length %d sequences per benchmark (>= 5%% dynamic frequency, level 1)\n%s"
    length
    (String.concat "\n" sections)

let table3_benchmarks = [ "sewha"; "feowf"; "bspline"; "edge"; "iir" ]

let table3_rows suite =
  List.filter_map
    (fun name ->
      match
        List.find_opt
          (fun (a : Pipeline.analysis) -> a.benchmark.name = name)
          suite
      with
      | None -> None
      | Some a ->
          let with_opt = Pipeline.coverage a (Pipeline.Query.make Opt_level.O1) in
          let without = Pipeline.coverage a (Pipeline.Query.make Opt_level.O0) in
          Some (name, [ (true, with_opt); (false, without) ]))
    table3_benchmarks

let table3 suite =
  let rows =
    List.concat_map
      (fun (name, variants) ->
        List.concat_map
          (fun (optimized, (r : Coverage.result)) ->
            let tag = if optimized then "yes" else "no" in
            match r.picks with
            | [] -> [ [ name; tag; "(none)"; ""; "" ] ]
            | first :: rest ->
                let row_of idx (p : Coverage.pick) =
                  [ (if idx = 0 then name else "");
                    (if idx = 0 then tag else "");
                    Chainop.sequence_name p.pick_classes;
                    Table.fmt_pct p.pick_freq;
                    (if idx = 0 then Table.fmt_pct r.coverage else "") ]
                in
                row_of 0 first :: List.mapi (fun i p -> row_of (i + 1) p) rest)
          variants)
      (table3_rows suite)
  in
  Table.render
    ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right ]
    ~headers:[ "Benchmark"; "Opt."; "Sequences"; "Frequency"; "Coverage" ]
    ~rows ()

(* Mean ops/cycle over the functions of one level's schedule. *)
let mean_ilp (a : Pipeline.analysis) level =
  let sched = Pipeline.sched a level in
  match
    List.map
      (fun (f : Asipfb_ir.Func.t) -> Asipfb_sched.Schedule.ilp sched f.name)
      sched.prog.funcs
  with
  | [] -> 1.0
  | values ->
      Asipfb_util.Listx.sum_by Fun.id values
      /. float_of_int (List.length values)

let ilp_report suite =
  let rows =
    List.map
      (fun (a : Pipeline.analysis) ->
        a.benchmark.name
        :: List.map
             (fun level -> Table.fmt_float (mean_ilp a level))
             Opt_level.all)
      suite
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~headers:[ "Benchmark"; "ILP O0"; "ILP O1"; "ILP O2" ]
    ~rows ()

let asip_report ?uarch suite =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (a : Pipeline.analysis) ->
      let d = Timing.design ?uarch a Opt_level.O1 in
      Buffer.add_string buf
        (Printf.sprintf
           "%s: %d chained instructions, area %.1f, cycles %d -> %d (speedup %.2fx)\n"
           a.benchmark.name (List.length d.choices) d.estimate.total_area
           d.estimate.baseline_cycles d.estimate.asip_cycles
           d.estimate.speedup);
      Buffer.add_string buf (Asipfb_asip.Isa.render d.choices))
    suite;
  Buffer.contents buf

let total_detection suite_rows =
  Asipfb_util.Listx.sum_by (fun (e : Combine.entry) -> e.combined_freq)
    suite_rows

let vliw_report ?(uarch = Asipfb_asip.Uarch.flat) suite =
  let widths = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun (a : Pipeline.analysis) ->
        let sched = Pipeline.sched a Opt_level.O1 in
        let est =
          Asipfb_sched.Vliw.characterize ~widths
            ~latency:(Asipfb_asip.Uarch.instr_latency uarch)
            sched.prog ~profile:a.profile
        in
        a.benchmark.name
        :: List.map
             (fun w ->
               Printf.sprintf "%.2fx" (Asipfb_sched.Vliw.speedup_at est w))
             widths)
      suite
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~headers:[ "Benchmark"; "1-issue"; "2-issue"; "4-issue"; "8-issue" ]
    ~rows ()

let resched_report ?uarch suite =
  let config = Asipfb_asip.Select.default_config in
  let rows =
    List.map
      (fun (a : Pipeline.analysis) ->
        let d = Timing.design ?uarch a Opt_level.O1 in
        let sched = Pipeline.sched a Opt_level.O1 in
        let detections =
          List.concat_map
            (fun length ->
              Detect.run
                { (Detect.default_config ~length) with
                  min_freq = config.min_freq }
                sched ~profile:a.profile)
            config.lengths
        in
        let schedule_level =
          Asipfb_asip.Resched.estimate ~uarch:d.uarch sched ~profile:a.profile
            ~choices:d.choices ~detections
        in
        [ a.benchmark.name;
          Printf.sprintf "%.2fx" d.estimate.speedup;
          Printf.sprintf "%.2fx" schedule_level.speedup ])
      suite
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    ~headers:[ "Benchmark"; "counting (1-issue)"; "schedule-level (VLIW)" ]
    ~rows ()

(* The top [n] sequences of [primary] next to their frequency in [other]. *)
let side_by_side ~n ~headers primary other =
  let rows =
    Asipfb_util.Listx.take n primary
    |> List.map (fun (e : Combine.entry) ->
           [ Chainop.sequence_name e.classes;
             Table.fmt_pct e.combined_freq;
             Table.fmt_pct (freq_in other e.classes) ])
  in
  Table.render ~aligns:[ Table.Left; Table.Right; Table.Right ] ~headers ~rows
    ()

(* An ablation: the top ten with the feature on next to off, then both
   totals. *)
let ablation ~headers on off =
  side_by_side ~n:10 ~headers on off
  ^ Printf.sprintf "\ntotal detected: %.2f%% with, %.2f%% without\n"
      (total_detection on) (total_detection off)

let pairs sched ~profile =
  Detect.run (Detect.default_config ~length:2) sched ~profile

(* Length-2 detections of a transformed program, re-profiled on the
   benchmark's inputs and scheduled at O1. *)
let transformed_pairs transform (a : Pipeline.analysis) =
  let prog = transform a.prog in
  let outcome = Asipfb_sim.Interp.run prog ~inputs:(a.benchmark.inputs ()) in
  pairs
    (Asipfb_sched.Schedule.optimize ~level:Opt_level.O1 prog)
    ~profile:outcome.profile

(* The study's own length-2 detections at O1, combined. *)
let kernel_pairs suite =
  combine suite (fun a ->
      Pipeline.detect a (Pipeline.Query.make ~length:2 Opt_level.O1))

let ablation_pipelining suite =
  let with_copies copies =
    combine suite (fun a ->
        Detect.run
          { (Detect.default_config ~length:2) with copies }
          (Pipeline.sched a Opt_level.O1) ~profile:a.profile)
  in
  ablation
    ~headers:[ "Sequence"; "with pipelining"; "without" ]
    (with_copies 2) (with_copies 1)

let ablation_cleanup suite =
  let cleaned_total =
    combine suite (transformed_pairs Asipfb_sched.Cleanup.run)
  in
  let raw_total = kernel_pairs suite in
  let top label entries =
    Printf.sprintf "%s: total %.2f%%, top %s\n" label
      (total_detection entries)
      (String.concat ", "
         (Asipfb_util.Listx.take 3 entries
         |> List.map (fun (e : Combine.entry) ->
                Printf.sprintf "%s %.2f%%"
                  (Chainop.sequence_name e.classes)
                  e.combined_freq)))
  in
  top "without cleanup" raw_total ^ top "with cleanup" cleaned_total

let codegen_report ?uarch suite =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "| Benchmark | chained execs | measured cycles | measured | estimated |\n";
  Buffer.add_string buf
    "|-----------|---------------|-----------------|----------|-----------|\n";
  List.iter
    (fun (a : Pipeline.analysis) ->
      let d = Timing.design ?uarch a Opt_level.O1 in
      let t_out = Timing.measure a d in
      Buffer.add_string buf
        (Printf.sprintf "| %-9s | %13d | %15d | %7.2fx | %8.2fx |\n"
           a.benchmark.name t_out.chained_executed t_out.cycles
           (Asipfb_asip.Tsim.measured_speedup t_out)
           d.estimate.speedup))
    suite;
  Buffer.contents buf

let export_csv suite ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref [] in
  let write name rows =
    let path = Filename.concat dir name in
    Asipfb_report.Csv.write_file ~path rows;
    written := path :: !written
  in
  List.iter
    (fun length ->
      let rows =
        List.concat_map
          (fun level ->
            List.map
              (fun (e : Combine.entry) ->
                [ Chainop.sequence_name e.classes;
                  Opt_level.to_string level;
                  Printf.sprintf "%.4f" e.combined_freq ])
              (combined suite ~level ~length))
          Opt_level.all
      in
      write
        (Printf.sprintf "combined_length%d.csv" length)
        ([ "sequence"; "level"; "frequency_pct" ] :: rows))
    [ 2; 3; 4; 5 ];
  write "table2.csv"
    ([ "sequence"; "O0"; "O1"; "O2" ]
    :: List.map
         (fun (name, f0, f1, f2) ->
           [ name; Printf.sprintf "%.4f" f0; Printf.sprintf "%.4f" f1;
             Printf.sprintf "%.4f" f2 ])
         (table2_rows suite));
  write "coverage.csv"
    ([ "benchmark"; "optimized"; "sequence"; "frequency_pct"; "coverage_pct" ]
    :: List.concat_map
         (fun (name, variants) ->
           List.concat_map
             (fun (optimized, (r : Coverage.result)) ->
               List.map
                 (fun (p : Coverage.pick) ->
                   [ name;
                     (if optimized then "yes" else "no");
                     Chainop.sequence_name p.pick_classes;
                     Printf.sprintf "%.4f" p.pick_freq;
                     Printf.sprintf "%.4f" r.coverage ])
                 r.picks)
             variants)
         (table3_rows suite));
  write "ilp.csv"
    ([ "benchmark"; "level"; "ops_per_cycle" ]
    :: List.concat_map
         (fun (a : Pipeline.analysis) ->
           List.map
             (fun level ->
               [ a.benchmark.name; Opt_level.to_string level;
                 Printf.sprintf "%.4f" (mean_ilp a level) ])
             Opt_level.all)
         suite);
  List.rev !written

let ablation_motion suite =
  let totals with_motion =
    combine suite (fun a ->
        let sched =
          if with_motion then Pipeline.sched a Opt_level.O1
          else
            Asipfb_sched.Schedule.optimize_custom ~rename:false
              ~percolate:false ~pipeline:true a.prog
        in
        pairs sched ~profile:a.profile)
  in
  ablation
    ~headers:[ "Sequence"; "with motion"; "without motion" ]
    (totals true) (totals false)

let opmix_report suite =
  let classes_of_interest =
    [ "add"; "multiply"; "load"; "store"; "compare"; "shift"; "mov";
      "control" ]
  in
  let rows =
    List.map
      (fun (a : Pipeline.analysis) ->
        let entries =
          Asipfb_chain.Opmix.analyze a.prog ~profile:a.profile
        in
        let merged cls =
          (* Fold float variants into the family for display. *)
          Asipfb_util.Listx.sum_by
            (fun (e : Asipfb_chain.Opmix.entry) ->
              if Chainop.family e.op_class = cls || e.op_class = cls then
                e.share
              else 0.0)
            entries
        in
        a.benchmark.name
        :: List.map (fun cls -> Table.fmt_pct (merged cls)) classes_of_interest)
      suite
  in
  Table.render
    ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) classes_of_interest)
    ~headers:("Benchmark" :: classes_of_interest)
    ~rows ()

let extra_report _suite =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (b : Benchmark.t) ->
      let a = Pipeline.analyze b in
      let ds =
        Asipfb_util.Listx.take 4
          (Pipeline.detect a (Pipeline.Query.make ~length:2 Opt_level.O1))
      in
      let d = Timing.design a Opt_level.O1 in
      let t_out = Timing.measure a d in
      Buffer.add_string buf
        (Printf.sprintf "%s (%s)\n  top pairs: %s\n  chained ISA: %s\n  measured: %d ops in %d cycles (%.2fx)\n"
           b.name b.description
           (String.concat ", "
              (List.map
                 (fun (d : Detect.detected) ->
                   Printf.sprintf "%s %.1f%%" (Detect.display_name d) d.freq)
                 ds))
           (String.concat ", "
              (List.map
                 (fun (c : Asipfb_asip.Select.choice) ->
                   Asipfb_asip.Isa.mnemonic c.classes)
                 d.choices))
           t_out.ops_executed t_out.cycles
           (Asipfb_asip.Tsim.measured_speedup t_out)))
    Asipfb_bench_suite.Extra.all;
  Buffer.contents buf

let timing_report ?uarch suite =
  String.concat ""
    (List.map
       (fun (a : Pipeline.analysis) ->
         Timing.to_text (Timing.of_analysis ?uarch a Opt_level.O1))
       suite)

let validation_unroll suite =
  side_by_side ~n:12
    ~headers:[ "Sequence"; "kernel analysis"; "physically unrolled" ]
    (kernel_pairs suite)
    (combine suite (transformed_pairs Asipfb_sched.Unroll.loop_once))

(* --- the report: one table, rendered on the engine's pool --------------- *)

let artifacts ?uarch suite =
  [ ("table1", fun () -> table1 ());
    ("figure3", fun () -> figure_combined suite ~length:2);
    ("figure4", fun () -> figure_combined suite ~length:4);
    ("figure_l3", fun () -> figure_combined suite ~length:3);
    ("figure_l5", fun () -> figure_combined suite ~length:5);
    ("table2", fun () -> table2 suite);
    ("figure5", fun () -> figure_per_benchmark suite ~length:2);
    ("figure6", fun () -> figure_per_benchmark suite ~length:4);
    ("table3", fun () -> table3 suite);
    ("ilp", fun () -> ilp_report suite);
    ("asip", fun () -> asip_report ?uarch suite);
    ("vliw", fun () -> vliw_report ?uarch suite);
    ("resched", fun () -> resched_report ?uarch suite);
    ("ablation_pipelining", fun () -> ablation_pipelining suite);
    ("ablation_cleanup", fun () -> ablation_cleanup suite);
    ("codegen", fun () -> codegen_report ?uarch suite);
    ("timing", fun () -> timing_report ?uarch suite);
    ("ablation_motion", fun () -> ablation_motion suite);
    ("opmix", fun () -> opmix_report suite);
    ("extra", fun () -> extra_report suite);
    ("validation_unroll", fun () -> validation_unroll suite) ]

(* Every entry renders as one task of a single pool phase.  A task
   returns its exception instead of raising, so a failure neither hides
   the entries before it nor depends on which domain finished first:
   printing walks the table in order and stops at the lowest-indexed
   failure, exactly where a sequential loop would have stopped. *)
let render_report ~jobs table print =
  let tasks =
    Array.of_list
      (List.map
         (fun (_, render) () ->
           match Metrics.timed Metrics.global "artifact" render with
           | text -> Ok text
           | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
         table)
  in
  let results = Asipfb_engine.Pool.run ~jobs tasks in
  List.iteri
    (fun i (name, _) ->
      print (Printf.sprintf "==== %s ====\n" name);
      match results.(i) with
      | Ok text -> print (text ^ "\n")
      | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)
    table
