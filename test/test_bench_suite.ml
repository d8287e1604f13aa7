(* Benchmark-suite tests: every kernel compiles, validates, runs
   deterministically, and produces non-trivial output. *)

module Benchmark = Asipfb_bench_suite.Benchmark
module Registry = Asipfb_bench_suite.Registry
module Data = Asipfb_bench_suite.Data
module Value = Asipfb_exec.Value

let test_registry_complete () =
  Alcotest.(check int) "twelve benchmarks" 12 (List.length Registry.all);
  Alcotest.(check (list string)) "paper order"
    [ "fir"; "iir"; "pse"; "intfft"; "compress"; "flatten"; "smooth";
      "edge"; "sewha"; "dft"; "bspline"; "feowf" ]
    Registry.names;
  Alcotest.(check bool) "find works" true
    (Registry.find_opt "fir" <> None);
  Alcotest.(check bool) "unknown is None" true
    (Registry.find_opt "quake" = None);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Registry.find "nothere" with
  | exception Registry.Unknown_benchmark msg ->
      Alcotest.(check bool) "error names the benchmark" true
        (contains msg "\"nothere\"");
      Alcotest.(check bool) "error lists valid names" true (contains msg "fir")
  | _ -> Alcotest.fail "find must raise"

let test_all_compile_and_validate () =
  List.iter
    (fun (b : Benchmark.t) ->
      let p = Benchmark.compile b in
      Alcotest.(check (list string))
        (b.name ^ " validates")
        []
        (List.map
           (fun e -> Format.asprintf "%a" Asipfb_ir.Validate.pp_error e)
           (Asipfb_ir.Validate.check p)))
    Registry.all

let test_all_run () =
  List.iter
    (fun (b : Benchmark.t) ->
      let o = Benchmark.run b in
      Alcotest.(check bool)
        (b.name ^ " executes a meaningful amount of work")
        true
        (o.instrs_executed > 1000))
    Registry.all

let test_outputs_nontrivial () =
  List.iter
    (fun (b : Benchmark.t) ->
      let o = Benchmark.run b in
      let some_nonzero =
        List.exists
          (fun region ->
            Array.exists
              (fun v -> not (Value.equal v (Value.zero (Value.ty v))))
              (Asipfb_exec.Memory.dump o.memory region))
          b.output_regions
      in
      Alcotest.(check bool) (b.name ^ " output not all zero") true
        some_nonzero)
    Registry.all

let test_deterministic () =
  List.iter
    (fun (b : Benchmark.t) ->
      let o1 = Benchmark.run b and o2 = Benchmark.run b in
      Alcotest.(check int) (b.name ^ " same work") o1.instrs_executed
        o2.instrs_executed;
      List.iter
        (fun region ->
          let a = Asipfb_exec.Memory.dump o1.memory region in
          let c = Asipfb_exec.Memory.dump o2.memory region in
          Alcotest.(check bool) (b.name ^ "/" ^ region ^ " identical") true
            (Array.for_all2 Value.equal a c))
        b.output_regions)
    Registry.all

let test_metadata () =
  List.iter
    (fun (b : Benchmark.t) ->
      Alcotest.(check bool) (b.name ^ " described") true
        (String.length b.description > 5);
      Alcotest.(check bool) (b.name ^ " data described") true
        (String.length b.data_input > 5);
      Alcotest.(check bool) (b.name ^ " has sources") true
        (Benchmark.source_lines b >= 10))
    Registry.all

let test_data_generators () =
  let a = Data.float_signal ~seed:5 ~len:10 in
  let b = Data.float_signal ~seed:5 ~len:10 in
  Alcotest.(check bool) "float signal deterministic" true
    (Array.for_all2 Value.equal a b);
  Array.iter
    (fun v ->
      let x = Value.as_float v in
      Alcotest.(check bool) "in [-1,1)" true (x >= -1.0 && x < 1.0))
    a;
  let s = Data.int_stream ~seed:3 ~len:20 in
  Array.iter
    (fun v ->
      let x = Value.as_int v in
      Alcotest.(check bool) "int in [-128,128)" true (x >= -128 && x < 128))
    s;
  let img = Data.image_8bit ~seed:1 ~side:24 in
  Alcotest.(check int) "image size" 576 (Array.length img);
  Array.iter
    (fun v ->
      let x = Value.as_int v in
      Alcotest.(check bool) "pixel in [0,255]" true (x >= 0 && x <= 255))
    img;
  (* The image has spatial structure: the corners differ. *)
  Alcotest.(check bool) "gradient present" true
    (Value.as_int img.(575) > Value.as_int img.(0))

let test_fft_benchmarks_sane () =
  (* Parseval-flavoured sanity: pse's spectrum carries energy. *)
  let pse = Registry.find "pse" in
  let o = Benchmark.run pse in
  let psd = Asipfb_exec.Memory.dump o.memory "psd" in
  let energy =
    Array.fold_left (fun acc v -> acc +. Value.as_float v) 0.0 psd
  in
  Alcotest.(check bool) "spectral energy positive" true (energy > 0.1);
  (* intfft interpolates: output length doubles the frame and stays
     bounded. *)
  let intfft = Registry.find "intfft" in
  let oi = Benchmark.run intfft in
  let interp = Asipfb_exec.Memory.dump oi.memory "interp" in
  Alcotest.(check bool) "interpolation bounded" true
    (Array.for_all (fun v -> Float.abs (Value.as_float v) < 100.0) interp)

let test_image_benchmarks_sane () =
  let smooth = Registry.find "smooth" in
  let o = Benchmark.run smooth in
  let out = Asipfb_exec.Memory.dump o.memory "result" in
  Array.iter
    (fun v ->
      let x = Value.as_int v in
      Alcotest.(check bool) "smoothed pixel in range" true
        (x >= 0 && x <= 255))
    out;
  let edge = Registry.find "edge" in
  let oe = Benchmark.run edge in
  let eout = Asipfb_exec.Memory.dump oe.memory "result" in
  Array.iter
    (fun v ->
      let x = Value.as_int v in
      Alcotest.(check bool) "edge map binary" true (x = 0 || x = 255))
    eout;
  Alcotest.(check bool) "edges found" true
    (Array.exists (fun v -> Value.as_int v = 255) eout);
  let flatten = Registry.find "flatten" in
  let off = Benchmark.run flatten in
  let fout = Asipfb_exec.Memory.dump off.memory "result" in
  Array.iter
    (fun v ->
      let x = Value.as_int v in
      Alcotest.(check bool) "flattened pixel in range" true
        (x >= 0 && x <= 255))
    fout

let test_filter_benchmarks_sane () =
  (* A lowpass FIR of a bounded signal stays bounded. *)
  let fir = Registry.find "fir" in
  let o = Benchmark.run fir in
  let out = Asipfb_exec.Memory.dump o.memory "output" in
  Alcotest.(check bool) "fir bounded" true
    (Array.for_all (fun v -> Float.abs (Value.as_float v) < 10.0) out);
  (* Coefficients are a window-designed lowpass: the center tap is the
     largest. *)
  let coef = Asipfb_exec.Memory.dump o.memory "coef" in
  let center = Value.as_float coef.(17) in
  Alcotest.(check bool) "center tap dominates" true
    (Array.for_all (fun v -> Value.as_float v <= center +. 1e-9) coef);
  (* IIR of a bounded input remains stable. *)
  let iir = Registry.find "iir" in
  let oi = Benchmark.run iir in
  let iout = Asipfb_exec.Memory.dump oi.memory "output" in
  Alcotest.(check bool) "iir stable" true
    (Array.for_all (fun v -> Float.abs (Value.as_float v) < 50.0) iout)

let suite =
  [
    ( "bench_suite",
      [
        Alcotest.test_case "registry" `Quick test_registry_complete;
        Alcotest.test_case "compile and validate" `Quick
          test_all_compile_and_validate;
        Alcotest.test_case "all run" `Slow test_all_run;
        Alcotest.test_case "outputs non-trivial" `Slow test_outputs_nontrivial;
        Alcotest.test_case "deterministic" `Slow test_deterministic;
        Alcotest.test_case "metadata" `Quick test_metadata;
        Alcotest.test_case "data generators" `Quick test_data_generators;
        Alcotest.test_case "FFT benchmarks sane" `Slow test_fft_benchmarks_sane;
        Alcotest.test_case "image benchmarks sane" `Slow
          test_image_benchmarks_sane;
        Alcotest.test_case "filter benchmarks sane" `Quick
          test_filter_benchmarks_sane;
      ] );
  ]
