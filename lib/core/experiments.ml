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
module Uarch = Asipfb_asip.Uarch

type suite = Pipeline.analysis list

(* Where an artifact gets its inputs: computed on the spot ([direct], the
   standalone functions below) or from the report's keyed results
   ([keyed], the artifact table).  Every artifact is written once against
   a source, so both paths share one gather-and-format body. *)
type source = {
  query : Pipeline.analysis -> Pipeline.Query.t -> Detect.detected list;
      (* A step-4 query, charged to the "detect" stage. *)
  detect :
    Pipeline.analysis -> Opt_level.t -> Detect.config -> Detect.detected list;
      (* Detection under a full configuration. *)
  design : Uarch.t -> Pipeline.analysis -> Timing.design;
  measured :
    Uarch.t -> Pipeline.analysis -> Timing.design -> Asipfb_asip.Tsim.outcome;
  variant : Tasks.transform -> Pipeline.analysis -> Tasks.variant;
  extras : unit -> Pipeline.analysis list;
}

let direct =
  {
    query = Pipeline.detect;
    detect =
      (fun a level config ->
        Detect.run config (Pipeline.sched a level) ~profile:a.profile);
    design = (fun uarch a -> Timing.design ~uarch a Opt_level.O1);
    measured = (fun _ a d -> Timing.measure a d);
    variant = Tasks.compute_variant;
    extras = (fun () -> List.map Pipeline.analyze Asipfb_bench_suite.Extra.all);
  }

let keyed tasks =
  {
    query =
      (fun a q ->
        (Tasks.query tasks a q.level (Pipeline.detect_config q)).detections);
    detect = (fun a level config -> (Tasks.query tasks a level config).detections);
    design = Tasks.design tasks;
    measured = (fun uarch a _ -> Tasks.measured tasks uarch a);
    variant = Tasks.variant tasks;
    extras = (fun () -> Tasks.extras tasks);
  }

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

let combined_query ~level ~length =
  Pipeline.Query.make ~length ~min_freq:0.5 level

let combined_in src suite ~level ~length =
  combine suite (fun a -> src.query a (combined_query ~level ~length))

let combined = combined_in direct

let figure_combined_in src suite ~length =
  let combined = combined_in src in
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

let figure_combined = figure_combined_in direct

let table2_sequences =
  [ [ "multiply"; "add" ];
    [ "add"; "multiply" ];
    [ "add"; "add" ];
    [ "add"; "multiply"; "add" ];
    [ "multiply"; "add"; "add" ] ]

let table2_rows_in src suite =
  let freq_at level classes =
    freq_in
      (combined_in src suite ~level ~length:(List.length classes))
      classes
  in
  List.map
    (fun classes ->
      ( Chainop.sequence_name classes,
        freq_at Opt_level.O0 classes,
        freq_at Opt_level.O1 classes,
        freq_at Opt_level.O2 classes ))
    table2_sequences

let table2_rows = table2_rows_in direct

let table2_in src suite =
  let rows =
    List.map
      (fun (name, f0, f1, f2) ->
        [ name; Table.fmt_pct f0; Table.fmt_pct f1; Table.fmt_pct f2 ])
      (table2_rows_in src suite)
  in
  Table.render
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~headers:[ "Operation Sequence"; "level 0"; "level 1"; "level 2" ]
    ~rows ()

let table2 = table2_in direct

let per_benchmark_in src suite query =
  List.map
    (fun (a : Pipeline.analysis) -> (a.benchmark.name, src.query a query))
    suite

let per_benchmark suite ~level ~length ~min_freq =
  per_benchmark_in direct suite (Pipeline.Query.make ~length ~min_freq level)

let figure_query ~length =
  Pipeline.Query.make ~length ~min_freq:5.0 Opt_level.O1

let figure_per_benchmark_in src suite ~length =
  let per_bench = per_benchmark_in src suite (figure_query ~length) in
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

let figure_per_benchmark = figure_per_benchmark_in direct

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

let asip_report_in src uarch suite =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (a : Pipeline.analysis) ->
      let d = src.design uarch a in
      Buffer.add_string buf
        (Printf.sprintf
           "%s: %d chained instructions, area %.1f, cycles %d -> %d (speedup %.2fx)\n"
           a.benchmark.name (List.length d.choices) d.estimate.total_area
           d.estimate.baseline_cycles d.estimate.asip_cycles
           d.estimate.speedup);
      Buffer.add_string buf (Asipfb_asip.Isa.render d.choices))
    suite;
  Buffer.contents buf

let asip_report ?(uarch = Uarch.flat) suite = asip_report_in direct uarch suite

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

(* The detections selection ran on, asked again for the schedule-level
   estimate. *)
let resched_configs =
  let config = Asipfb_asip.Select.default_config in
  List.map
    (fun length ->
      { (Detect.default_config ~length) with min_freq = config.min_freq })
    config.lengths

let resched_report_in src uarch suite =
  let rows =
    List.map
      (fun (a : Pipeline.analysis) ->
        let d = src.design uarch a in
        let sched = Pipeline.sched a Opt_level.O1 in
        let detections =
          List.concat_map (src.detect a Opt_level.O1) resched_configs
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

let resched_report ?(uarch = Uarch.flat) suite = resched_report_in direct uarch suite

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
let transformed_pairs src transform a =
  let v = src.variant transform a in
  pairs v.Tasks.v_sched ~profile:v.v_profile

let kernel_query = Pipeline.Query.make ~length:2 Opt_level.O1

(* The study's own length-2 detections at O1, combined. *)
let kernel_pairs src suite = combine suite (fun a -> src.query a kernel_query)

let pipelining_config copies =
  { (Detect.default_config ~length:2) with copies }

let ablation_pipelining_in src suite =
  let with_copies copies =
    combine suite (fun a ->
        src.detect a Opt_level.O1 (pipelining_config copies))
  in
  ablation
    ~headers:[ "Sequence"; "with pipelining"; "without" ]
    (with_copies 2) (with_copies 1)

let ablation_pipelining = ablation_pipelining_in direct

let ablation_cleanup_in src suite =
  let cleaned_total = combine suite (transformed_pairs src Tasks.Cleanup) in
  let raw_total = kernel_pairs src suite in
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

let ablation_cleanup = ablation_cleanup_in direct

let codegen_report_in src uarch suite =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "| Benchmark | chained execs | measured cycles | measured | estimated |\n";
  Buffer.add_string buf
    "|-----------|---------------|-----------------|----------|-----------|\n";
  List.iter
    (fun (a : Pipeline.analysis) ->
      let d = src.design uarch a in
      let t_out = src.measured uarch a d in
      Buffer.add_string buf
        (Printf.sprintf "| %-9s | %13d | %15d | %7.2fx | %8.2fx |\n"
           a.benchmark.name t_out.chained_executed t_out.cycles
           (Asipfb_asip.Tsim.measured_speedup t_out)
           d.estimate.speedup))
    suite;
  Buffer.contents buf

let codegen_report ?(uarch = Uarch.flat) suite = codegen_report_in direct uarch suite

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

let extra_report_in src =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (a : Pipeline.analysis) ->
      let b = a.benchmark in
      let ds = Asipfb_util.Listx.take 4 (src.query a kernel_query) in
      let d = src.design Uarch.flat a in
      let t_out = src.measured Uarch.flat a d in
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
    (src.extras ());
  Buffer.contents buf

let extra_report _suite = extra_report_in direct

let timing_report_in src uarch suite =
  String.concat ""
    (List.map
       (fun (a : Pipeline.analysis) ->
         let d = src.design uarch a in
         Timing.to_text (Timing.report a Opt_level.O1 d (src.measured uarch a d)))
       suite)

let timing_report ?(uarch = Uarch.flat) suite = timing_report_in direct uarch suite

let validation_unroll_in src suite =
  side_by_side ~n:12
    ~headers:[ "Sequence"; "kernel analysis"; "physically unrolled" ]
    (kernel_pairs src suite)
    (combine suite (transformed_pairs src Tasks.Unroll))

let validation_unroll = validation_unroll_in direct

(* --- the report: one table, its needs settled on the engine's pool ------ *)

type artifact = {
  name : string;
  needs : unit -> Tasks.need list;
  render : unit -> string;
}

let artifacts ?(uarch = Uarch.flat) ?engine ?on_skip suite =
  let engine =
    match engine with
    | Some e -> e
    | None -> Asipfb_engine.Engine.sequential ()
  in
  let tasks = Tasks.create ?on_skip engine in
  let src = keyed tasks in
  let queries_of qs a =
    List.map
      (fun (q : Pipeline.Query.t) ->
        Tasks.need_query tasks a q.level (Pipeline.detect_config q))
      qs
  in
  let each suite f () = List.concat_map f suite in
  let combined_needs lengths =
    each suite
      (queries_of
         (List.concat_map
            (fun length ->
              List.map
                (fun level -> combined_query ~level ~length)
                Opt_level.all)
            lengths))
  in
  let product u a = [ Tasks.need_product tasks u a ] in
  let variant_pairs transform a =
    Tasks.need_variant tasks transform a :: queries_of [ kernel_query ] a
  in
  let detects configs a =
    List.map (Tasks.need_query tasks a Opt_level.O1) configs
  in
  let entry name needs render = { name; needs; render } in
  let none () = [] in
  [ entry "table1" none table1;
    entry "figure3" (combined_needs [ 2 ]) (fun () ->
        figure_combined_in src suite ~length:2);
    entry "figure4" (combined_needs [ 4 ]) (fun () ->
        figure_combined_in src suite ~length:4);
    entry "figure_l3" (combined_needs [ 3 ]) (fun () ->
        figure_combined_in src suite ~length:3);
    entry "figure_l5" (combined_needs [ 5 ]) (fun () ->
        figure_combined_in src suite ~length:5);
    entry "table2"
      (combined_needs
         (List.sort_uniq compare (List.map List.length table2_sequences)))
      (fun () -> table2_in src suite);
    entry "figure5"
      (each suite (queries_of [ figure_query ~length:2 ]))
      (fun () -> figure_per_benchmark_in src suite ~length:2);
    entry "figure6"
      (each suite (queries_of [ figure_query ~length:4 ]))
      (fun () -> figure_per_benchmark_in src suite ~length:4);
    entry "table3" none (fun () -> table3 suite);
    entry "ilp" none (fun () -> ilp_report suite);
    entry "asip" (each suite (product uarch)) (fun () ->
        asip_report_in src uarch suite);
    entry "vliw" none (fun () -> vliw_report ~uarch suite);
    entry "resched"
      (each suite (fun a -> product uarch a @ detects resched_configs a))
      (fun () -> resched_report_in src uarch suite);
    entry "ablation_pipelining"
      (each suite (detects [ pipelining_config 2; pipelining_config 1 ]))
      (fun () -> ablation_pipelining_in src suite);
    entry "ablation_cleanup"
      (each suite (variant_pairs Tasks.Cleanup))
      (fun () -> ablation_cleanup_in src suite);
    entry "codegen" (each suite (product uarch)) (fun () ->
        codegen_report_in src uarch suite);
    entry "timing" (each suite (product uarch)) (fun () ->
        timing_report_in src uarch suite);
    entry "ablation_motion" none (fun () -> ablation_motion suite);
    entry "opmix" none (fun () -> opmix_report suite);
    (* The mix is analysed on the report's engine when the needs are
       declared; a failed analysis declares nothing and is re-raised by
       the render. *)
    entry "extra"
      (fun () ->
        match Tasks.extras tasks with
        | xs ->
            List.concat_map
              (fun a -> queries_of [ kernel_query ] a @ product Uarch.flat a)
              xs
        | exception _ -> [])
      (fun () -> extra_report_in src);
    entry "validation_unroll"
      (each suite (variant_pairs Tasks.Unroll))
      (fun () -> validation_unroll_in src suite) ]

let settle ~jobs table =
  Tasks.settle ~jobs (List.concat_map (fun a -> a.needs ()) table)

let render_one ~jobs a =
  settle ~jobs [ a ];
  a.render ()

(* The table's needs settle as one pool phase, then every entry renders
   as one task of a second.  A task returns its exception instead of
   raising, so a failure neither hides the entries before it nor depends
   on which domain finished first: printing walks the table in order and
   stops at the lowest-indexed failure, exactly where a sequential loop
   would have stopped.  A failed need is re-raised by each render that
   consumes it, so the first consumer is the one that stops printing. *)
let render_report ~jobs table print =
  settle ~jobs table;
  let tasks =
    Array.of_list
      (List.map
         (fun a () ->
           match Metrics.timed Metrics.global "artifact" a.render with
           | text -> Ok text
           | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
         table)
  in
  let results = Asipfb_engine.Pool.run ~jobs tasks in
  List.iteri
    (fun i a ->
      print (Printf.sprintf "==== %s ====\n" a.name);
      match results.(i) with
      | Ok text -> print (text ^ "\n")
      | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)
    table
