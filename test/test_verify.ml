(* Static-analysis subsystem: IR dataflow checks, mini-C lint, and the
   verify checkpoint on the engine. *)

module Builder = Asipfb_ir.Builder
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Types = Asipfb_ir.Types
module Ircheck = Asipfb_verify.Ircheck
module Lint = Asipfb_verify.Lint
module Verify = Asipfb_verify.Verify
module Diag = Asipfb_diag.Diag

let rules ds =
  List.filter_map (fun (d : Diag.t) -> List.assoc_opt "check" d.context) ds

(* --- IR dataflow checks -------------------------------------------------- *)

let test_uninit_on_one_path () =
  let b = Builder.create () in
  let p = Builder.fresh_reg b ~ty:Types.Int ~name:"p" in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let y = Builder.fresh_reg b ~ty:Types.Int ~name:"y" in
  let l = Builder.fresh_label b ~hint:"join" in
  let body =
    [
      Builder.cond_jump b (Instr.Reg p) l;
      Builder.mov b x (Instr.Imm_int 1);
      Builder.label_mark b l;
      Builder.mov b y (Instr.Reg x);
      Builder.ret b (Some (Instr.Reg y));
    ]
  in
  let f =
    Func.make ~name:"f" ~params:[ p ] ~ret_ty:(Some Types.Int) ~body
  in
  let ds = Ircheck.check_func f in
  Alcotest.(check (list string))
    "one maybe-uninitialized finding" [ "maybe-uninitialized" ] (rules ds);
  Alcotest.(check (option string))
    "names x" (Some "x.1")
    (List.assoc_opt "register" (List.hd ds).context)

let test_init_on_all_paths_clean () =
  let b = Builder.create () in
  let p = Builder.fresh_reg b ~ty:Types.Int ~name:"p" in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let l_else = Builder.fresh_label b ~hint:"else" in
  let l_join = Builder.fresh_label b ~hint:"join" in
  let body =
    [
      Builder.cond_jump b (Instr.Reg p) l_else;
      Builder.mov b x (Instr.Imm_int 1);
      Builder.jump b l_join;
      Builder.label_mark b l_else;
      Builder.mov b x (Instr.Imm_int 2);
      Builder.label_mark b l_join;
      Builder.ret b (Some (Instr.Reg x));
    ]
  in
  let f =
    Func.make ~name:"f" ~params:[ p ] ~ret_ty:(Some Types.Int) ~body
  in
  Alcotest.(check (list string)) "clean" [] (rules (Ircheck.check_func f))

let test_dead_store () =
  let b = Builder.create () in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let first = Builder.mov b x (Instr.Imm_int 1) in
  let body =
    [ first; Builder.mov b x (Instr.Imm_int 2);
      Builder.ret b (Some (Instr.Reg x)) ]
  in
  let f = Func.make ~name:"f" ~params:[] ~ret_ty:(Some Types.Int) ~body in
  let ds = Ircheck.check_func f in
  Alcotest.(check (list string)) "one dead store" [ "dead-store" ] (rules ds);
  Alcotest.(check (option string))
    "names the first mov" (Some (string_of_int (Instr.opid first)))
    (List.assoc_opt "opid" (List.hd ds).context)

(* The dead-store finding carries the overwriting definition's opid as a
   "killed-by" witness — same-block and across a branch. *)
let test_dead_store_killed_by () =
  let b = Builder.create () in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let first = Builder.mov b x (Instr.Imm_int 1) in
  let killer = Builder.mov b x (Instr.Imm_int 2) in
  let body = [ first; killer; Builder.ret b (Some (Instr.Reg x)) ] in
  let f = Func.make ~name:"f" ~params:[] ~ret_ty:(Some Types.Int) ~body in
  (match Ircheck.check_func f with
  | [ d ] ->
      Alcotest.(check (option string))
        "same-block witness"
        (Some (string_of_int (Instr.opid killer)))
        (List.assoc_opt "killed-by" d.context)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  let b = Builder.create () in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let l = Builder.fresh_label b ~hint:"next" in
  let first = Builder.mov b x (Instr.Imm_int 1) in
  let killer = Builder.mov b x (Instr.Imm_int 2) in
  let body =
    [ first; Builder.jump b l; Builder.label_mark b l; killer;
      Builder.ret b (Some (Instr.Reg x)) ]
  in
  let f = Func.make ~name:"f" ~params:[] ~ret_ty:(Some Types.Int) ~body in
  match Ircheck.check_func f with
  | [ d ] ->
      Alcotest.(check (option string))
        "cross-block witness"
        (Some (string_of_int (Instr.opid killer)))
        (List.assoc_opt "killed-by" d.context)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds)

let test_unreachable_block () =
  let b = Builder.create () in
  let x = Builder.fresh_reg b ~ty:Types.Int ~name:"x" in
  let l = Builder.fresh_label b ~hint:"orphan" in
  let body =
    [
      Builder.ret b None;
      Builder.label_mark b l;
      Builder.mov b x (Instr.Imm_int 1);
      Builder.ret b None;
    ]
  in
  let f = Func.make ~name:"f" ~params:[] ~ret_ty:None ~body in
  Alcotest.(check bool)
    "unreachable block reported" true
    (List.mem "unreachable-block" (rules (Ircheck.check_func f)))

let test_suite_ir_clean () =
  List.iter
    (fun (b : Asipfb_bench_suite.Benchmark.t) ->
      let prog = Asipfb_bench_suite.Benchmark.compile b in
      Alcotest.(check (list string))
        (b.name ^ " IR checks clean") []
        (rules (Verify.check_ir prog)))
    Asipfb_bench_suite.Registry.all

(* --- mini-C lint ---------------------------------------------------------- *)

let lint_rules src = rules (Verify.lint_source src)

let test_lint_unused_variable () =
  Alcotest.(check (list string))
    "unused local" [ "unused-variable" ]
    (lint_rules "int out[1]; void main() { int x = 3; out[0] = 1; }")

let test_lint_unused_parameter () =
  Alcotest.(check (list string))
    "unused parameter" [ "unused-parameter" ]
    (lint_rules
       "int out[1]; int f(int a, int b) { return a; } void main() { out[0] \
        = f(1, 2); }")

let test_lint_const_oob () =
  let ds =
    Verify.lint_source "int a[4]; void main() { a[0] = 1; a[5] = a[0]; }"
  in
  Alcotest.(check (list string))
    "constant index out of bounds" [ "const-out-of-bounds" ] (rules ds);
  Alcotest.(check (option string))
    "names the index" (Some "5")
    (List.assoc_opt "index" (List.hd ds).context)

let test_lint_constant_condition () =
  Alcotest.(check (list string))
    "constant if condition" [ "constant-condition" ]
    (lint_rules
       "int out[1]; void main() { if (1) out[0] = 1; else out[0] = 2; }")

let test_lint_loop_condition_exempt () =
  (* while (1) desugars to a literal condition and is idiomatic. *)
  Alcotest.(check (list string))
    "constant loop condition allowed" []
    (lint_rules
       "int out[1]; void main() { int i = 0; while (1) { i = i + 1; if (i \
        > 3) break; } out[0] = i; }")

let test_lint_self_assignment () =
  let ds =
    Verify.lint_source
      "int out[1]; void main() { int x = 3; x = x; out[0] = x; }"
  in
  Alcotest.(check (list string))
    "self-assignment" [ "self-assignment" ] (rules ds);
  Alcotest.(check (option string))
    "names the variable" (Some "x")
    (List.assoc_opt "variable" (List.hd ds).context)

let test_lint_param_shadow () =
  let ds =
    Verify.lint_source
      "int out[1]; int f(int a) { if (a > 0) { int a = 2; return a; } \
       return 0; } void main() { out[0] = f(1); }"
  in
  Alcotest.(check (list string))
    "parameter shadowed" [ "parameter-shadowed" ] (rules ds);
  Alcotest.(check (option string))
    "names the parameter" (Some "a")
    (List.assoc_opt "parameter" (List.hd ds).context)

let test_lint_missing_return () =
  Alcotest.(check (list string))
    "missing return on a path" [ "missing-return" ]
    (lint_rules
       "int out[1]; int f(int a) { if (a > 0) { return 1; } } void main() \
        { out[0] = f(1); }")

let test_lint_return_on_all_paths_clean () =
  Alcotest.(check (list string))
    "both branches return" []
    (lint_rules
       "int out[1]; int f(int a) { if (a > 0) { return 1; } else { return \
        2; } } void main() { out[0] = f(1); }")

let test_lint_frontend_error_is_diag () =
  match Verify.lint_source "int main(" with
  | [ d ] ->
      Alcotest.(check string)
        "frontend stage" "frontend" (Diag.stage_to_string d.stage)
  | ds ->
      Alcotest.failf "expected one frontend diagnostic, got %d"
        (List.length ds)

let test_suite_lint_clean () =
  List.iter
    (fun (b : Asipfb_bench_suite.Benchmark.t) ->
      Alcotest.(check (list string))
        (b.name ^ " lint clean") [] (lint_rules b.source))
    Asipfb_bench_suite.Registry.all

(* --- engine integration --------------------------------------------------- *)

let test_pipeline_verify_checkpoint () =
  let b = List.hd Asipfb_bench_suite.Registry.all in
  (match Asipfb.Pipeline.analyze_result ~verify:`Full b with
  | Ok a -> Alcotest.(check int) "no findings" 0 (List.length a.verify)
  | Error d -> Alcotest.fail (Diag.to_string d));
  match Asipfb.Pipeline.analyze_result b with
  | Ok a -> Alcotest.(check int) "off by default" 0 (List.length a.verify)
  | Error d -> Alcotest.fail (Diag.to_string d)

let test_engine_verify_cached () =
  let engine = Asipfb_engine.Engine.create ~jobs:1 ~cache:true () in
  let bs = [ List.hd Asipfb_bench_suite.Registry.all ] in
  ignore (Asipfb_engine.Engine.analyze_all engine ~verify:`Full bs);
  let cold = (Asipfb_engine.Engine.stats engine).verify in
  ignore (Asipfb_engine.Engine.analyze_all engine ~verify:`Full bs);
  let warm = (Asipfb_engine.Engine.stats engine).verify in
  Alcotest.(check int) "cold run misses" 4 cold.misses;
  Alcotest.(check int) "warm run hits" (cold.hits + 4) warm.hits

(* `Tv adds one refinement payload per level on top of `Full's 1 IR +
   3 schedule IR-check payloads: 7 misses cold, 7 hits warm. *)
let test_engine_tv_cached () =
  let engine = Asipfb_engine.Engine.create ~jobs:1 ~cache:true () in
  let bs = [ List.hd Asipfb_bench_suite.Registry.all ] in
  ignore (Asipfb_engine.Engine.analyze_all engine ~verify:`Tv bs);
  let cold = (Asipfb_engine.Engine.stats engine).verify in
  ignore (Asipfb_engine.Engine.analyze_all engine ~verify:`Tv bs);
  let warm = (Asipfb_engine.Engine.stats engine).verify in
  Alcotest.(check int) "cold run misses" 7 cold.misses;
  Alcotest.(check int) "warm run hits" (cold.hits + 7) warm.hits;
  (* A clean benchmark proves refinement at every level: no findings. *)
  match Asipfb_engine.Engine.analyze_all engine ~verify:`Tv bs with
  | [ (_, Ok a) ] -> Alcotest.(check int) "no findings" 0 (List.length a.verify)
  | _ -> Alcotest.fail "analyze_all shape"

let suite =
  [
    ( "verify.ircheck",
      [
        Alcotest.test_case "uninit on one path" `Quick test_uninit_on_one_path;
        Alcotest.test_case "init on all paths clean" `Quick
          test_init_on_all_paths_clean;
        Alcotest.test_case "dead store" `Quick test_dead_store;
        Alcotest.test_case "dead store killed-by witness" `Quick
          test_dead_store_killed_by;
        Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
        Alcotest.test_case "suite IR clean" `Quick test_suite_ir_clean;
      ] );
    ( "verify.lint",
      [
        Alcotest.test_case "unused variable" `Quick test_lint_unused_variable;
        Alcotest.test_case "unused parameter" `Quick
          test_lint_unused_parameter;
        Alcotest.test_case "const out of bounds" `Quick test_lint_const_oob;
        Alcotest.test_case "constant condition" `Quick
          test_lint_constant_condition;
        Alcotest.test_case "loop condition exempt" `Quick
          test_lint_loop_condition_exempt;
        Alcotest.test_case "self assignment" `Quick
          test_lint_self_assignment;
        Alcotest.test_case "parameter shadowed" `Quick
          test_lint_param_shadow;
        Alcotest.test_case "missing return" `Quick test_lint_missing_return;
        Alcotest.test_case "all paths return" `Quick
          test_lint_return_on_all_paths_clean;
        Alcotest.test_case "frontend error as diag" `Quick
          test_lint_frontend_error_is_diag;
        Alcotest.test_case "suite lint clean" `Quick test_suite_lint_clean;
      ] );
    ( "verify.engine",
      [
        Alcotest.test_case "pipeline checkpoint" `Quick
          test_pipeline_verify_checkpoint;
        Alcotest.test_case "verify results cached" `Quick
          test_engine_verify_cached;
        Alcotest.test_case "tv results cached" `Quick test_engine_tv_cached;
      ] );
  ]
