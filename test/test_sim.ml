(* Simulator tests: value model, memory, operator semantics, profiles. *)

module Types = Asipfb_ir.Types
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Interp = Asipfb_sim.Interp
module Lower = Asipfb_frontend.Lower

let test_value_basics () =
  Alcotest.(check bool) "ty int" true (Value.ty (Value.Vint 3) = Types.Int);
  Alcotest.(check int) "as_int" 3 (Value.as_int (Value.Vint 3));
  Alcotest.(check (float 0.0)) "as_float" 2.5
    (Value.as_float (Value.Vfloat 2.5));
  (match Value.as_int (Value.Vfloat 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "as_int on float must raise");
  Alcotest.(check bool) "zero int" true (Value.equal (Value.zero Types.Int) (Value.Vint 0));
  Alcotest.(check bool) "close exact ints" true
    (Value.close (Value.Vint 5) (Value.Vint 5));
  Alcotest.(check bool) "close floats within eps" true
    (Value.close (Value.Vfloat 1.0) (Value.Vfloat (1.0 +. 1e-12)));
  Alcotest.(check bool) "not close across types" false
    (Value.close (Value.Vint 0) (Value.Vfloat 0.0))

let test_eval_binop () =
  let vi n = Value.Vint n and vf x = Value.Vfloat x in
  Alcotest.(check int) "add" 7 (Value.as_int (Interp.eval_binop Types.Add (vi 3) (vi 4)));
  Alcotest.(check int) "sub" (-1) (Value.as_int (Interp.eval_binop Types.Sub (vi 3) (vi 4)));
  Alcotest.(check int) "mul" 12 (Value.as_int (Interp.eval_binop Types.Mul (vi 3) (vi 4)));
  Alcotest.(check int) "div" 3 (Value.as_int (Interp.eval_binop Types.Div (vi 13) (vi 4)));
  Alcotest.(check int) "rem" 1 (Value.as_int (Interp.eval_binop Types.Rem (vi 13) (vi 4)));
  Alcotest.(check int) "and" 4 (Value.as_int (Interp.eval_binop Types.And (vi 6) (vi 12)));
  Alcotest.(check int) "or" 14 (Value.as_int (Interp.eval_binop Types.Or (vi 6) (vi 12)));
  Alcotest.(check int) "xor" 10 (Value.as_int (Interp.eval_binop Types.Xor (vi 6) (vi 12)));
  Alcotest.(check int) "shl" 24 (Value.as_int (Interp.eval_binop Types.Shl (vi 3) (vi 3)));
  Alcotest.(check int) "shr arithmetic" (-2)
    (Value.as_int (Interp.eval_binop Types.Shr (vi (-8)) (vi 2)));
  Alcotest.(check (float 1e-9)) "fadd" 3.75
    (Value.as_float (Interp.eval_binop Types.Fadd (vf 1.25) (vf 2.5)));
  Alcotest.(check (float 1e-9)) "fdiv" 0.5
    (Value.as_float (Interp.eval_binop Types.Fdiv (vf 1.0) (vf 2.0)))

let test_eval_binop_traps () =
  let vi n = Value.Vint n in
  let expect_trap f =
    match f () with
    | exception Interp.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected runtime error"
  in
  expect_trap (fun () -> Interp.eval_binop Types.Div (vi 1) (vi 0));
  expect_trap (fun () -> Interp.eval_binop Types.Rem (vi 1) (vi 0));
  expect_trap (fun () -> Interp.eval_binop Types.Shl (vi 1) (vi 70));
  expect_trap (fun () -> Interp.eval_binop Types.Shr (vi 1) (vi (-1)));
  expect_trap (fun () ->
      Interp.eval_binop Types.Fdiv (Value.Vfloat 1.0) (Value.Vfloat 0.0))

let test_eval_unop () =
  Alcotest.(check int) "neg" (-3) (Value.as_int (Interp.eval_unop Types.Neg (Value.Vint 3)));
  Alcotest.(check int) "not" (-1) (Value.as_int (Interp.eval_unop Types.Not (Value.Vint 0)));
  Alcotest.(check (float 1e-9)) "fneg" (-2.0)
    (Value.as_float (Interp.eval_unop Types.Fneg (Value.Vfloat 2.0)));
  Alcotest.(check (float 1e-9)) "itof" 5.0
    (Value.as_float (Interp.eval_unop Types.Int_to_float (Value.Vint 5)));
  Alcotest.(check int) "ftoi truncates" 5
    (Value.as_int (Interp.eval_unop Types.Float_to_int (Value.Vfloat 5.9)));
  Alcotest.(check (float 1e-9)) "sqrt" 3.0
    (Value.as_float (Interp.eval_unop Types.Sqrt (Value.Vfloat 9.0)));
  match Interp.eval_unop Types.Sqrt (Value.Vfloat (-1.0)) with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "sqrt(-1) must trap"

let test_memory () =
  let prog =
    Lower.compile "int a[4]; float f[2]; void main() { }" ~entry:"main"
  in
  let m = Memory.create prog in
  Alcotest.(check int) "zero initialized" 0
    (Value.as_int (Memory.load m "a" 0));
  Memory.store m "a" 3 (Value.Vint 9);
  Alcotest.(check int) "store/load" 9 (Value.as_int (Memory.load m "a" 3));
  (match Memory.load m "a" 4 with
  | exception Memory.Bounds ("a", 4) -> ()
  | _ -> Alcotest.fail "bounds check");
  (match Memory.store m "a" 0 (Value.Vfloat 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type check on store");
  (match Memory.seed m "a" (Array.make 5 (Value.Vint 0)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "seed length check");
  Memory.seed m "f" [| Value.Vfloat 1.5 |];
  Alcotest.(check (float 0.0)) "seeded" 1.5
    (Value.as_float (Memory.load m "f" 0));
  Alcotest.(check int) "dump is a copy" 2 (Array.length (Memory.dump m "f"))

let test_profile () =
  let p = Profile.create () in
  Profile.bump p ~opid:3;
  Profile.bump p ~opid:3;
  Profile.add p ~opid:7 ~count:5;
  Alcotest.(check int) "count" 2 (Profile.count p ~opid:3);
  Alcotest.(check int) "unknown is 0" 0 (Profile.count p ~opid:99);
  Alcotest.(check int) "total" 7 (Profile.total p);
  let q = Profile.of_alist [ (3, 1); (8, 2) ] in
  let m = Profile.merge p q in
  Alcotest.(check int) "merge sums" 3 (Profile.count m ~opid:3);
  Alcotest.(check int) "merge keeps both" 2 (Profile.count m ~opid:8);
  Alcotest.(check int) "merge total" 10 (Profile.total m);
  let s = Profile.scale m 0.5 in
  Alcotest.(check int) "scale rounds half up" 2 (Profile.count s ~opid:3);
  Alcotest.(check int) "scale of even count" 1 (Profile.count s ~opid:8);
  Alcotest.(check bool) "alist sorted" true
    (let l = Profile.to_alist m in
     l = List.sort (fun (a, _) (b, _) -> compare a b) l)

let test_profile_counts_match_execution () =
  let src =
    "int out[1]; void main() { int i; int s = 0; for (i = 0; i < 10; i++) s += i; out[0] = s; }"
  in
  let prog = Lower.compile src ~entry:"main" in
  let o = Interp.run prog in
  Alcotest.(check int) "profile total = executed" o.instrs_executed
    (Profile.total o.profile);
  (* The loop-body add executes exactly 10 times. *)
  let f = Asipfb_ir.Prog.find_func prog "main" in
  let body_adds =
    List.filter
      (fun i ->
        match Asipfb_ir.Instr.kind i with
        | Asipfb_ir.Instr.Binop (Types.Add, d, _, _) ->
            Asipfb_ir.Reg.name d = "s"
        | _ -> false)
      f.body
  in
  match body_adds with
  | [ add ] ->
      Alcotest.(check int) "accumulator add runs 10 times" 10
        (Profile.count o.profile ~opid:(Asipfb_ir.Instr.opid add))
  | _ -> Alcotest.fail "expected exactly one accumulator add"

let test_call_stack_depth () =
  let src =
    "int out[1]; int f3(int x) { return x + 3; } int f2(int x) { return f3(x) * 2; } int f1(int x) { return f2(x) - 1; } void main() { out[0] = f1(5); }"
  in
  let o = Interp.run (Lower.compile src ~entry:"main") in
  Alcotest.(check int) "nested call result" 15
    (Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0))

let test_uninitialized_register () =
  (* Reading a declared-but-unassigned scalar is a runtime error, not
     silent garbage. *)
  let src = "int out[1]; void main() { int x; out[0] = x; }" in
  match Interp.run (Lower.compile src ~entry:"main") with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected uninitialized-read error"

(* Edge cases with the exact diagnostic asserted, not just "raises": the
   CLI and the resilient pipeline both surface these strings verbatim. *)
let expect_exact_error expected f =
  match f () with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check string) "exact diagnostic" expected msg
  | _ -> Alcotest.fail ("expected runtime error: " ^ expected)

let run_src src = Interp.run (Lower.compile src ~entry:"main")

let test_fuel_exhaustion_diag () =
  (* Fuel exhaustion is structurally distinct from a crash: it raises
     Fuel_exhausted carrying the budget and progress, and its diagnostic
     is tagged kind=timeout for suite-level classification. *)
  match
    Interp.run
      (Lower.compile "void main() { int i = 0; while (1) { i = i + 1; } }"
         ~entry:"main")
      ~fuel:1000
  with
  | exception Interp.Fuel_exhausted { instrs_executed; fuel } -> (
      Alcotest.(check int) "budget recorded" 1000 fuel;
      Alcotest.(check int) "spent the whole budget" 1000 instrs_executed;
      match
        Asipfb_sim.Sim_diag.to_diag
          (Interp.Fuel_exhausted { instrs_executed; fuel })
      with
      | Some d ->
          Alcotest.(check string) "diagnostic message"
            "out of fuel (infinite loop?)" d.message;
          Alcotest.(check (option string)) "tagged as timeout" (Some "timeout")
            (List.assoc_opt "kind" d.context)
      | None -> Alcotest.fail "Sim_diag must convert Fuel_exhausted")
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_division_by_zero_diag () =
  expect_exact_error "integer division by zero" (fun () ->
      run_src "int out[1]; void main() { int z = 0; out[0] = 1 / z; }");
  expect_exact_error "integer remainder by zero" (fun () ->
      run_src "int out[1]; void main() { int z = 0; out[0] = 1 % z; }");
  expect_exact_error "float division by zero" (fun () ->
      run_src
        "float out[1]; void main() { float z = 0.0; out[0] = 1.0 / z; }")

let test_shift_range_diag () =
  expect_exact_error "shift amount 70 out of range" (fun () ->
      run_src "int out[1]; void main() { int s = 70; out[0] = 1 << s; }");
  expect_exact_error "shift amount -1 out of range" (fun () ->
      run_src "int out[1]; void main() { int s = 0 - 1; out[0] = 4 >> s; }")

let test_memory_bounds_diag () =
  (* Raw Memory.Bounds carries the region and index... *)
  let prog = Lower.compile "int a[4]; void main() { }" ~entry:"main" in
  let m = Memory.create prog in
  (match Memory.load m "a" 7 with
  | exception Memory.Bounds ("a", 7) -> ()
  | exception Memory.Bounds (r, i) ->
      Alcotest.fail (Printf.sprintf "wrong bounds payload: %s[%d]" r i)
  | _ -> Alcotest.fail "expected Bounds");
  (* ...and the interpreter renders it with direction and location. *)
  expect_exact_error "load out of bounds: a[9]" (fun () ->
      run_src "int a[4]; int out[1]; void main() { int i = 9; out[0] = a[i]; }");
  expect_exact_error "store out of bounds: a[4]" (fun () ->
      run_src "int a[4]; void main() { int i = 4; a[i] = 1; }")

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "values" `Quick test_value_basics;
        Alcotest.test_case "binop semantics" `Quick test_eval_binop;
        Alcotest.test_case "binop traps" `Quick test_eval_binop_traps;
        Alcotest.test_case "unop semantics" `Quick test_eval_unop;
        Alcotest.test_case "memory" `Quick test_memory;
        Alcotest.test_case "profile" `Quick test_profile;
        Alcotest.test_case "profile matches execution" `Quick
          test_profile_counts_match_execution;
        Alcotest.test_case "nested calls" `Quick test_call_stack_depth;
        Alcotest.test_case "uninitialized read" `Quick
          test_uninitialized_register;
        Alcotest.test_case "fuel exhaustion diagnostic" `Quick
          test_fuel_exhaustion_diag;
        Alcotest.test_case "division by zero diagnostic" `Quick
          test_division_by_zero_diag;
        Alcotest.test_case "shift range diagnostic" `Quick
          test_shift_range_diag;
        Alcotest.test_case "memory bounds diagnostic" `Quick
          test_memory_bounds_diag;
      ] );
  ]
