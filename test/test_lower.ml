(* Lowering tests: compile small programs end to end, validate the IR, and
   check both structural properties and simulated semantics. *)

module Lower = Asipfb_frontend.Lower
module Instr = Asipfb_ir.Instr
module Types = Asipfb_ir.Types
module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Interp = Asipfb_sim.Interp
module Value = Asipfb_exec.Value

let compile src = Lower.compile src ~entry:"main"

let run_main ?inputs src =
  Interp.run (compile src) ?inputs

let result_int src region idx =
  let o = run_main src in
  Value.as_int (Asipfb_exec.Memory.load o.memory region idx)

let result_float src region idx =
  let o = run_main src in
  Value.as_float (Asipfb_exec.Memory.load o.memory region idx)

let check_int msg expected src =
  Alcotest.(check int) msg expected (result_int src "out" 0)

let test_arithmetic () =
  check_int "precedence" 7 "int out[1]; void main() { out[0] = 1 + 2 * 3; }";
  check_int "division truncates" 2 "int out[1]; void main() { out[0] = 7 / 3; }";
  check_int "negative division" (-2)
    "int out[1]; void main() { out[0] = -7 / 3; }";
  check_int "remainder" 1 "int out[1]; void main() { out[0] = 7 % 3; }";
  check_int "shifts" 40 "int out[1]; void main() { out[0] = (5 << 4) >> 1; }";
  check_int "bitwise" 6 "int out[1]; void main() { out[0] = (4 | 2) & ~1; }";
  check_int "xor" 5 "int out[1]; void main() { out[0] = 6 ^ 3; }";
  check_int "unary minus" (-5) "int out[1]; void main() { out[0] = -5; }"

let test_float_arithmetic () =
  let y = result_float "float out[1]; void main() { out[0] = 1.5 * 2.0 + 0.25; }" "out" 0 in
  Alcotest.(check (float 1e-9)) "float expr" 3.25 y;
  let z = result_float "float out[1]; void main() { out[0] = (float)7 / 2.0; }" "out" 0 in
  Alcotest.(check (float 1e-9)) "cast then divide" 3.5 z;
  let w = result_int "int out[1]; void main() { out[0] = (int)3.9; }" "out" 0 in
  Alcotest.(check int) "float to int truncates" 3 w

let test_comparisons_and_logic () =
  check_int "true comparison" 1 "int out[1]; void main() { out[0] = 3 < 4; }";
  check_int "false comparison" 0 "int out[1]; void main() { out[0] = 4 <= 3; }";
  check_int "logical not" 1 "int out[1]; void main() { out[0] = !0; }";
  check_int "and short-circuits" 0
    "int a[1]; int out[1]; void main() { out[0] = 0 && a[5]; }";
  check_int "or short-circuits" 1
    "int a[1]; int out[1]; void main() { out[0] = 1 || a[5]; }";
  check_int "and both true" 1
    "int out[1]; void main() { out[0] = 2 && 3; }";
  check_int "ternary true" 10
    "int out[1]; void main() { out[0] = 1 < 2 ? 10 : 20; }";
  check_int "ternary false" 20
    "int out[1]; void main() { out[0] = 2 < 1 ? 10 : 20; }"

let test_control_flow () =
  check_int "if else" 2
    "int out[1]; void main() { if (1 > 2) out[0] = 1; else out[0] = 2; }";
  check_int "while loop sum" 45
    "int out[1]; void main() { int s = 0; int i = 0; while (i < 10) { s += i; i++; } out[0] = s; }";
  check_int "for loop product" 24
    "int out[1]; void main() { int p = 1; int i; for (i = 1; i <= 4; i++) p *= i; out[0] = p; }";
  check_int "nested loops" 100
    "int out[1]; void main() { int s = 0; int i; int j; for (i = 0; i < 10; i++) for (j = 0; j < 10; j++) s++; out[0] = s; }"

let test_functions () =
  check_int "call with args" 11
    "int out[1]; int add(int a, int b) { return a + b; } void main() { out[0] = add(5, 6); }";
  check_int "nested calls" 14
    "int out[1]; int dbl(int a) { return a * 2; } void main() { out[0] = dbl(dbl(3)) + 2; }";
  check_int "void call side effect" 9
    "int out[1]; void set(int v) { out[0] = v; } void main() { set(9); }";
  let y =
    result_float
      "float out[1]; float half(float x) { return x / 2.0; } void main() { out[0] = half(7.0); }"
      "out" 0
  in
  Alcotest.(check (float 1e-9)) "float return" 3.5 y

let test_arrays () =
  check_int "store then load" 42
    "int buf[4]; int out[1]; void main() { buf[2] = 42; out[0] = buf[2]; }";
  check_int "computed index" 5
    "int buf[8]; int out[1]; void main() { int i = 3; buf[i + 1] = 5; out[0] = buf[2 + 2]; }";
  check_int "array increment" 2
    "int h[4]; int out[1]; void main() { h[1]++; h[1]++; out[0] = h[1]; }"

let test_intrinsic_semantics () =
  let y = result_float "float out[1]; void main() { out[0] = sqrt(16.0); }" "out" 0 in
  Alcotest.(check (float 1e-9)) "sqrt" 4.0 y;
  let z = result_float "float out[1]; void main() { out[0] = fabs(-2.5); }" "out" 0 in
  Alcotest.(check (float 1e-9)) "fabs" 2.5 z;
  let s = result_float "float out[1]; void main() { out[0] = sin(0.0) + cos(0.0); }" "out" 0 in
  Alcotest.(check (float 1e-9)) "sin/cos" 1.0 s

let test_validation_of_output () =
  (* Every compiled program validates (compile runs check_exn), and the
     validator also accepts it when invoked directly. *)
  let p =
    compile
      "int a[4]; int f(int x) { return x * x; } void main() { a[0] = f(3); }"
  in
  Alcotest.(check (list Alcotest.string)) "no validation errors" []
    (List.map
       (fun e -> Format.asprintf "%a" Asipfb_ir.Validate.pp_error e)
       (Asipfb_ir.Validate.check p))

let test_loop_condition_shape () =
  (* While-loop guards lower to a negated compare feeding one conditional
     jump — no extra compare against zero. *)
  let p = compile "void main() { int i = 0; while (i < 5) i++; }" in
  let f = Prog.find_func p "main" in
  let cmps =
    List.filter
      (fun i ->
        match Instr.kind i with
        | Instr.Cmp (_, Types.Ge, _, _, _) -> true
        | _ -> false)
      f.body
  in
  Alcotest.(check int) "one negated compare" 1 (List.length cmps)

let test_default_return_inserted () =
  (* Falling off the end of a void function still yields a terminated
     body. *)
  let p = compile "void main() { int x = 1; }" in
  let f = Prog.find_func p "main" in
  match List.rev f.body with
  | last :: _ ->
      Alcotest.(check bool) "ends in control" true (Instr.is_control last)
  | [] -> Alcotest.fail "empty body"

let test_opids_unique_across_functions () =
  let p =
    compile
      "int f() { return 1; } int g() { return 2; } void main() { int x = f() + g(); }"
  in
  let all =
    List.concat_map (fun (f : Func.t) -> List.map Instr.opid f.body) p.funcs
    |> List.filter (fun id -> id >= 0)
  in
  Alcotest.(check int) "opids unique" (List.length all)
    (List.length (List.sort_uniq Int.compare all))

let test_runtime_errors () =
  (let src = "int a[2]; void main() { a[5] = 1; }" in
   match run_main src with
   | exception Interp.Runtime_error _ -> ()
   | _ -> Alcotest.fail "expected bounds error");
  (let src = "int out[1]; void main() { int z = 0; out[0] = 1 / z; }" in
   match run_main src with
   | exception Interp.Runtime_error _ -> ()
   | _ -> Alcotest.fail "expected division by zero");
  let src = "void main() { while (1) { } }" in
  match Interp.run (compile src) ~fuel:1000 with
  | exception Interp.Fuel_exhausted _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let suite =
  [
    ( "frontend.lower",
      [
        Alcotest.test_case "integer arithmetic" `Quick test_arithmetic;
        Alcotest.test_case "float arithmetic" `Quick test_float_arithmetic;
        Alcotest.test_case "comparisons and logic" `Quick
          test_comparisons_and_logic;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "functions" `Quick test_functions;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "intrinsics" `Quick test_intrinsic_semantics;
        Alcotest.test_case "validates" `Quick test_validation_of_output;
        Alcotest.test_case "loop condition shape" `Quick
          test_loop_condition_shape;
        Alcotest.test_case "default return" `Quick test_default_return_inserted;
        Alcotest.test_case "opid uniqueness" `Quick
          test_opids_unique_across_functions;
        Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      ] );
  ]
