(* Tests for the op-mix analysis, the custom optimizer entry point, and the
   CSV export path. *)

module Opmix = Asipfb_chain.Opmix
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level
module Interp = Asipfb_sim.Interp
module Lower = Asipfb_frontend.Lower

let analysis name =
  Asipfb.Pipeline.analyze (Asipfb_bench_suite.Registry.find name)

let test_opmix_shares_sum () =
  let a = analysis "sewha" in
  let entries = Opmix.analyze a.prog ~profile:a.profile in
  let total =
    Asipfb_util.Listx.sum_by (fun (e : Opmix.entry) -> e.share) entries
  in
  Alcotest.(check bool) "shares sum to ~100%" true
    (Float.abs (total -. 100.0) < 0.01);
  List.iter
    (fun (e : Opmix.entry) ->
      Alcotest.(check bool) (e.op_class ^ " share positive") true
        (e.share > 0.0 && e.dynamic_count > 0))
    entries

let test_opmix_sorted_and_sensible () =
  let a = analysis "feowf" in
  let entries = Opmix.analyze a.prog ~profile:a.profile in
  let shares = List.map (fun (e : Opmix.entry) -> e.share) entries in
  Alcotest.(check bool) "descending" true
    (shares = List.sort (fun x y -> Float.compare y x) shares);
  (* An elliptic filter is multiply/add heavy. *)
  Alcotest.(check bool) "fmultiply prominent" true
    (Opmix.share_of entries "fmultiply" > 20.0);
  Alcotest.(check (float 1e-9)) "absent class is zero" 0.0
    (Opmix.share_of entries "logic")

let test_opmix_counts_match_profile () =
  let a = analysis "flatten" in
  let entries = Opmix.analyze a.prog ~profile:a.profile in
  let total_counted =
    List.fold_left
      (fun acc (e : Opmix.entry) -> acc + e.dynamic_count)
      0 entries
  in
  Alcotest.(check int) "all executed ops bucketed"
    (Asipfb_exec.Profile.total a.profile)
    total_counted

let test_optimize_custom_flags () =
  let src =
    "float x[8]; void main() { int i; float s = 0.0; for (i = 0; i < 8; i++) { s = s + x[i]; } x[0] = s; }"
  in
  let p = Lower.compile src ~entry:"main" in
  let nothing =
    Schedule.optimize_custom ~rename:false ~percolate:false ~pipeline:false p
  in
  Alcotest.(check int) "all off: code untouched"
    (Asipfb_ir.Prog.total_instrs p)
    (Asipfb_ir.Prog.total_instrs nothing.prog);
  Alcotest.(check int) "all off: no kernels" 0
    (List.length (Schedule.func_sched nothing "main").kernels);
  let pipe_only =
    Schedule.optimize_custom ~rename:false ~percolate:false ~pipeline:true p
  in
  Alcotest.(check bool) "pipeline only: kernels found" true
    ((Schedule.func_sched pipe_only "main").kernels <> []);
  let rename_only =
    Schedule.optimize_custom ~rename:true ~percolate:false ~pipeline:false p
  in
  Alcotest.(check bool) "rename only: code grew" true
    (Asipfb_ir.Prog.total_instrs rename_only.prog
    >= Asipfb_ir.Prog.total_instrs p);
  (* Every configuration stays observationally equivalent. *)
  let reference = Interp.run p in
  List.iter
    (fun (s : Schedule.t) ->
      let o = Interp.run s.prog in
      Alcotest.(check bool) "equivalent" true
        (Asipfb_exec.Value.close
           (Asipfb_exec.Memory.load reference.memory "x" 0)
           (Asipfb_exec.Memory.load o.memory "x" 0)))
    [ nothing; pipe_only; rename_only ]

let test_export_csv () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "asipfb_test_csv" in
  (* Small suite for speed: two benchmarks. *)
  let suite = [ analysis "sewha"; analysis "iir" ] in
  let written = Asipfb.Experiments.export_csv suite ~dir in
  Alcotest.(check int) "seven files" 7 (List.length written);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check bool) (path ^ " has a header") true
        (String.length header > 0 && String.contains header ','))
    written;
  (* table2.csv has 5 data rows. *)
  let table2 = List.find (fun p -> Filename.basename p = "table2.csv") written in
  let ic = open_in table2 in
  let rec count acc =
    match input_line ic with
    | _ -> count (acc + 1)
    | exception End_of_file -> acc
  in
  let lines = count 0 in
  close_in ic;
  Alcotest.(check int) "table2 rows" 6 lines;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) written;
  if Sys.file_exists dir then Sys.rmdir dir

let suite =
  [
    ( "chain.opmix",
      [
        Alcotest.test_case "shares sum" `Quick test_opmix_shares_sum;
        Alcotest.test_case "sorted and sensible" `Quick
          test_opmix_sorted_and_sensible;
        Alcotest.test_case "counts match profile" `Quick
          test_opmix_counts_match_profile;
      ] );
    ( "sched.optimize_custom",
      [ Alcotest.test_case "flag combinations" `Quick test_optimize_custom_flags ] );
    ( "core.export",
      [ Alcotest.test_case "csv export" `Quick test_export_csv ] );
  ]
