(* Tests for the scheduling transformations: register renaming, percolation
   motion, kernel detection — unit checks on known shapes plus
   differential-testing properties on random programs and the benchmark
   suite. *)

module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Lower = Asipfb_frontend.Lower
module Interp = Asipfb_sim.Interp
module Rename = Asipfb_sched.Rename
module Percolate = Asipfb_sched.Percolate
module Schedule = Asipfb_sched.Schedule
module Opt_level = Asipfb_sched.Opt_level

let compile src = Lower.compile src ~entry:"main"

let mac_loop =
  {|
float x[16];
float y[16];
void main() {
  int i;
  float s = 0.0;
  for (i = 0; i < 16; i++) {
    x[i] = 1.5;
    y[i] = 2.0;
  }
  for (i = 0; i < 16; i++) {
    s = s + x[i] * y[i];
  }
  x[0] = s;
}
|}

(* --- renaming ----------------------------------------------------------- *)

let test_rename_validates_and_preserves () =
  let p = compile mac_loop in
  let p' = Rename.run p in
  let a = Interp.run p and b = Interp.run p' in
  Alcotest.(check bool) "same x[0]" true
    (Asipfb_exec.Value.close
       (Asipfb_exec.Memory.load a.memory "x" 0)
       (Asipfb_exec.Memory.load b.memory "x" 0))

let test_rename_introduces_restore_movs () =
  let p = compile mac_loop in
  let p' = Rename.run p in
  (* The loop index is anti-dependent (loads read it before the increment),
     so it gets renamed and a restore copy appears. *)
  Alcotest.(check bool) "code grew by restore movs" true
    (Prog.total_instrs p' > Prog.total_instrs p)

let test_rename_preserves_opids_of_survivors () =
  let p = compile mac_loop in
  let p' = Rename.run p in
  let opids prog =
    List.concat_map
      (fun (f : Func.t) ->
        List.filter_map
          (fun i -> if Instr.is_label i then None else Some (Instr.opid i))
          f.body)
      prog.Prog.funcs
    |> List.sort_uniq Int.compare
  in
  let original = opids p and renamed = opids p' in
  Alcotest.(check bool) "original opids survive" true
    (List.for_all (fun id -> List.mem id renamed) original)

let test_rename_removes_anti_dependence () =
  (* x = a; a = b — after renaming the second def writes a fresh register,
     so the anti dependence on [a] is gone inside the block. *)
  let src =
    "int out[2]; void main() { int a = 1; int b = 2; int x = a; a = b; out[0] = x; out[1] = a; }"
  in
  let p = compile src in
  let o = Interp.run (Rename.run p) in
  Alcotest.(check int) "x kept old a" 1
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0));
  Alcotest.(check int) "a updated" 2
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 1))

let prop_rename_preserves_semantics =
  QCheck2.Test.make ~name:"renaming preserves observable behaviour" ~count:60
    Gen_minic.gen_program (fun src ->
      let p = compile src in
      Gen_minic.observe p = Gen_minic.observe (Rename.run p))

(* --- percolation -------------------------------------------------------- *)

let test_hoistable_past_branch () =
  let b = Asipfb_ir.Builder.create () in
  let reg name ty = Asipfb_ir.Builder.fresh_reg b ~ty ~name in
  let x = reg "x" Types.Int and f = reg "f" Types.Float in
  let ok i = Alcotest.(check bool) "hoistable" true (Percolate.hoistable_past_branch i) in
  let no i = Alcotest.(check bool) "not hoistable" false (Percolate.hoistable_past_branch i) in
  ok (Asipfb_ir.Builder.binop b Types.Add x (Instr.Imm_int 1) (Instr.Imm_int 2));
  ok (Asipfb_ir.Builder.binop b Types.Fmul f (Instr.Imm_float 1.0) (Instr.Imm_float 2.0));
  ok (Asipfb_ir.Builder.cmp b Types.Int Types.Lt x (Instr.Imm_int 1) (Instr.Imm_int 2));
  ok (Asipfb_ir.Builder.mov b x (Instr.Imm_int 1));
  ok (Asipfb_ir.Builder.binop b Types.Shl x (Instr.Reg x) (Instr.Imm_int 2));
  no (Asipfb_ir.Builder.binop b Types.Shl x (Instr.Reg x) (Instr.Reg x));
  no (Asipfb_ir.Builder.binop b Types.Div x (Instr.Imm_int 1) (Instr.Reg x));
  no (Asipfb_ir.Builder.binop b Types.Fdiv f (Instr.Reg f) (Instr.Reg f));
  no (Asipfb_ir.Builder.unop b Types.Sqrt f (Instr.Reg f));
  no (Asipfb_ir.Builder.load b Types.Int x "m" (Instr.Imm_int 0));
  no (Asipfb_ir.Builder.store b Types.Int "m" (Instr.Imm_int 0) (Instr.Imm_int 1));
  no (Asipfb_ir.Builder.call b None "f" [])

let test_percolate_moves_conversion () =
  (* The itof feeding a store is trap-free and its operand is defined at
     the loop header, so it hoists above the branch. *)
  let src =
    "float x[8]; void main() { int i; for (i = 0; i < 8; i++) { x[i] = (float)i; } }"
  in
  let p = compile src in
  let p' = Percolate.run p in
  let f = Prog.find_func p' "main" in
  let cfg = Asipfb_cfg.Cfg.build f in
  (* Find the block ending in the loop's conditional jump; the conversion
     must now sit in it. *)
  let header_has_itof =
    Array.exists
      (fun (blk : Asipfb_cfg.Cfg.block) ->
        let ends_cond =
          match List.rev blk.instrs with
          | last :: _ -> (
              match Instr.kind last with
              | Instr.Cond_jump _ -> true
              | _ -> false)
          | [] -> false
        in
        ends_cond
        && List.exists
             (fun i ->
               match Instr.kind i with
               | Instr.Unop (Types.Int_to_float, _, _) -> true
               | _ -> false)
             blk.instrs)
      cfg.blocks
  in
  Alcotest.(check bool) "conversion speculated into header" true
    header_has_itof

let test_percolate_does_not_move_stores () =
  let src =
    "int x[8]; void main() { int i; for (i = 0; i < 8; i++) { x[i] = i; } }"
  in
  let p = compile src in
  let p' = Percolate.run p in
  (* Stores stay put: block containing the store still has it after its
     conditional predecessor. *)
  let f = Prog.find_func p' "main" in
  let cfg = Asipfb_cfg.Cfg.build f in
  let store_in_branchy_block =
    Array.exists
      (fun (blk : Asipfb_cfg.Cfg.block) ->
        let ends_cond =
          match List.rev blk.instrs with
          | last :: _ -> (
              match Instr.kind last with
              | Instr.Cond_jump _ -> true
              | _ -> false)
          | [] -> false
        in
        ends_cond
        && List.exists
             (fun i -> Instr.writes_memory i <> None)
             blk.instrs)
      cfg.blocks
  in
  Alcotest.(check bool) "no store above a branch" false store_in_branchy_block

let test_percolate_keeps_opids () =
  let p = compile mac_loop in
  let p' = Percolate.run p in
  Alcotest.(check int) "same instruction count" (Prog.total_instrs p)
    (Prog.total_instrs p');
  let opids prog =
    List.concat_map
      (fun (f : Func.t) ->
        List.filter_map
          (fun i -> if Instr.is_label i then None else Some (Instr.opid i))
          f.body)
      prog.Prog.funcs
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "same opids" (opids p) (opids p')

let test_store_moves_on_unconditional_edge () =
  (* A store at the top of a block whose single predecessor ends in an
     unconditional jump migrates upward. *)
  let src =
    "int a[4]; int out[1]; void main() { int x = 1; if (x > 0) { x = 2; } a[0] = x; out[0] = a[0]; }"
  in
  let p = compile src in
  let p' = Percolate.run p in
  let o = Interp.run p and o' = Interp.run p' in
  Alcotest.(check int) "same result"
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0))
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o'.memory "out" 0))

let test_store_order_preserved () =
  (* Two stores to the same cell must never reorder. *)
  let src =
    "int a[1]; int out[1]; void main() { int x = 5; { a[0] = 1; a[0] = 2; } out[0] = a[0] + x; }"
  in
  let p = compile src in
  let o = Interp.run (Percolate.run p) in
  Alcotest.(check int) "last store wins" 7
    (Asipfb_exec.Value.as_int (Asipfb_exec.Memory.load o.memory "out" 0))

let prop_percolate_preserves_semantics =
  QCheck2.Test.make ~name:"percolation preserves observable behaviour"
    ~count:60 Gen_minic.gen_program (fun src ->
      let p = compile src in
      Gen_minic.observe p = Gen_minic.observe (Percolate.run p))

let prop_rename_then_percolate_preserves =
  QCheck2.Test.make ~name:"renaming then percolation preserves behaviour"
    ~count:60 Gen_minic.gen_program (fun src ->
      let p = compile src in
      Gen_minic.observe p = Gen_minic.observe (Percolate.run (Rename.run p)))

(* --- schedule / kernels -------------------------------------------------- *)

let test_kernels_for_while_loop () =
  let p = compile mac_loop in
  let cfg = Asipfb_cfg.Cfg.build (Prog.find_func p "main") in
  let kernels = Schedule.find_kernels cfg in
  Alcotest.(check int) "both loops become kernels" 2 (List.length kernels);
  List.iter
    (fun (k : Schedule.kernel) ->
      Alcotest.(check int) "two-block kernels" 2
        (List.length k.kernel_blocks))
    kernels

let test_no_kernel_for_branchy_loop () =
  let src =
    "int x[8]; void main() { int i; for (i = 0; i < 8; i++) { if (i > 4) { x[i] = 1; } else { x[i] = 2; } } }"
  in
  let p = compile src in
  let cfg = Asipfb_cfg.Cfg.build (Prog.find_func p "main") in
  Alcotest.(check int) "conditional body is not a kernel" 0
    (List.length (Schedule.find_kernels cfg))

let test_optimize_levels () =
  let p = compile mac_loop in
  let s0 = Schedule.optimize ~level:Opt_level.O0 p in
  let s1 = Schedule.optimize ~level:Opt_level.O1 p in
  let s2 = Schedule.optimize ~level:Opt_level.O2 p in
  Alcotest.(check int) "O0 has no kernels" 0
    (List.length (Schedule.func_sched s0 "main").kernels);
  Alcotest.(check bool) "O1 has kernels" true
    ((Schedule.func_sched s1 "main").kernels <> []);
  Alcotest.(check (float 1e-9)) "O0 ilp is 1" 1.0 (Schedule.ilp s0 "main");
  Alcotest.(check bool) "O1 ilp above 1" true (Schedule.ilp s1 "main" > 1.0);
  Alcotest.(check bool) "O2 ilp at least O1's" true
    (Schedule.ilp s2 "main" >= Schedule.ilp s1 "main" -. 0.3)

let test_optimized_programs_validate () =
  List.iter
    (fun level ->
      let s = Schedule.optimize ~level (compile mac_loop) in
      Asipfb_ir.Validate.check_exn s.prog)
    Opt_level.all

(* The flagship integration property: every benchmark, at every level,
   computes the same outputs as the unoptimized reference. *)
let test_benchmark_equivalence () =
  List.iter
    (fun (bench : Asipfb_bench_suite.Benchmark.t) ->
      let p = Asipfb_bench_suite.Benchmark.compile bench in
      let inputs = bench.inputs () in
      let reference = Interp.run p ~inputs in
      List.iter
        (fun level ->
          let s = Schedule.optimize ~level p in
          let o = Interp.run s.prog ~inputs in
          List.iter
            (fun region ->
              let a = Asipfb_exec.Memory.dump reference.memory region in
              let b = Asipfb_exec.Memory.dump o.memory region in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s equivalent" bench.name
                   (Opt_level.to_string level) region)
                true
                (Array.length a = Array.length b
                && Array.for_all2
                     (fun x y -> Asipfb_exec.Value.close x y)
                     a b))
            bench.output_regions)
        Opt_level.all)
    Asipfb_bench_suite.Registry.all

let suite =
  [
    ( "sched.rename",
      [
        Alcotest.test_case "validates and preserves" `Quick
          test_rename_validates_and_preserves;
        Alcotest.test_case "restore movs" `Quick
          test_rename_introduces_restore_movs;
        Alcotest.test_case "opids survive" `Quick
          test_rename_preserves_opids_of_survivors;
        Alcotest.test_case "anti dependence removed" `Quick
          test_rename_removes_anti_dependence;
        QCheck_alcotest.to_alcotest prop_rename_preserves_semantics;
      ] );
    ( "sched.percolate",
      [
        Alcotest.test_case "speculation whitelist" `Quick
          test_hoistable_past_branch;
        Alcotest.test_case "hoists conversion into header" `Quick
          test_percolate_moves_conversion;
        Alcotest.test_case "stores never speculate" `Quick
          test_percolate_does_not_move_stores;
        Alcotest.test_case "stores move on unconditional edges" `Quick
          test_store_moves_on_unconditional_edge;
        Alcotest.test_case "store order preserved" `Quick
          test_store_order_preserved;
        Alcotest.test_case "opids and count preserved" `Quick
          test_percolate_keeps_opids;
        QCheck_alcotest.to_alcotest prop_percolate_preserves_semantics;
        QCheck_alcotest.to_alcotest prop_rename_then_percolate_preserves;
      ] );
    ( "sched.schedule",
      [
        Alcotest.test_case "while loops become kernels" `Quick
          test_kernels_for_while_loop;
        Alcotest.test_case "branchy loop is no kernel" `Quick
          test_no_kernel_for_branchy_loop;
        Alcotest.test_case "levels differ as documented" `Quick
          test_optimize_levels;
        Alcotest.test_case "optimized programs validate" `Quick
          test_optimized_programs_validate;
        Alcotest.test_case "benchmark suite equivalence" `Slow
          test_benchmark_equivalence;
      ] );
  ]
