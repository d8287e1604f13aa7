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

(* --- percolation vs. the re-solving mover ---------------------------------- *)

(* The reference mover: the same first-legal-move search as [Percolate],
   but liveness and must-define are solved from scratch before every
   move (must-define by its own round-robin loop over a universe of the
   defined registers and parameters).  [Percolate] patches both facts
   across moves instead; the output must be byte-identical. *)
module Naive_percolate = struct
  module Cfg = Asipfb_cfg.Cfg
  module Liveness = Asipfb_cfg.Liveness

  let is_call i =
    match Instr.kind i with Instr.Call _ -> true | _ -> false

  let at_dependence_top earlier o =
    let d = Instr.def o and uses = Instr.uses o in
    List.for_all
      (fun e ->
        let e_def = Instr.def e in
        (match e_def with
        | Some r -> not (List.exists (Reg.equal r) uses)
        | None -> true)
        && (match d with
           | Some r -> not (List.exists (Reg.equal r) (Instr.uses e))
           | None -> true)
        && (match (d, e_def) with
           | Some a, Some b -> not (Reg.equal a b)
           | _ -> true)
        && (match Instr.reads_memory o with
           | Some region ->
               Instr.writes_memory e <> Some region && not (is_call e)
           | None -> true)
        &&
        match Instr.writes_memory o with
        | Some region ->
            Instr.writes_memory e <> Some region
            && Instr.reads_memory e <> Some region
            && not (is_call e)
        | None -> true)
      earlier

  let definitely_defined (cfg : Cfg.t) (f : Func.t) =
    let universe =
      Reg.Set.union (Func.defined_regs f) (Reg.Set.of_list f.params)
    in
    let params = Reg.Set.of_list f.params in
    let def_out = Array.make (Array.length cfg.blocks) universe in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (b : Cfg.block) ->
          let def_in =
            if b.index = cfg.entry then params
            else
              match b.preds with
              | [] -> universe
              | p :: rest ->
                  List.fold_left
                    (fun acc q -> Reg.Set.inter acc def_out.(q))
                    def_out.(p) rest
          in
          let out =
            List.fold_left
              (fun s i ->
                match Instr.def i with Some d -> Reg.Set.add d s | None -> s)
              def_in b.instrs
          in
          if not (Reg.Set.equal out def_out.(b.index)) then begin
            def_out.(b.index) <- out;
            changed := true
          end)
        cfg.blocks
    done;
    def_out

  let one_move (cfg : Cfg.t) (f : Func.t) =
    let live = Liveness.compute cfg in
    let def_out = definitely_defined cfg f in
    let try_block (b : Cfg.block) =
      match b.preds with
      | [ p ] when p <> b.index && b.index <> cfg.entry -> (
          let pred = cfg.blocks.(p) in
          let speculative = List.length pred.succs > 1 in
          let rec split earlier = function
            | [] -> None
            | o :: rest ->
                let movable_kind =
                  match Instr.kind o with
                  | Instr.Store _ -> not speculative
                  | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _
                  | Instr.Load _ ->
                      true
                  | _ -> false
                in
                if
                  movable_kind
                  && at_dependence_top (List.rev earlier) o
                  && ((not speculative) || Percolate.hoistable_past_branch o)
                then Some (List.rev earlier, o, rest)
                else split (o :: earlier) rest
          in
          match split [] b.instrs with
          | None -> None
          | Some (before, o, after) ->
              let term =
                match List.rev pred.instrs with
                | last :: _ when Instr.is_control last -> Some last
                | _ -> None
              in
              let legal =
                List.for_all (fun u -> Reg.Set.mem u def_out.(p)) (Instr.uses o)
                &&
                match Instr.def o with
                | None -> true
                | Some d ->
                    (match term with
                    | Some t -> not (List.exists (Reg.equal d) (Instr.uses t))
                    | None -> true)
                    && List.for_all
                         (fun s ->
                           s = b.index
                           || not (Reg.Set.mem d (Liveness.live_in live s)))
                         pred.succs
              in
              if not legal then None
              else
                Some
                  (Cfg.map_blocks
                     (fun (blk : Cfg.block) ->
                       if blk.index = b.index then before @ after
                       else if blk.index = p then
                         match List.rev blk.instrs with
                         | last :: rev_rest when Instr.is_control last ->
                             List.rev rev_rest @ [ o; last ]
                         | _ -> blk.instrs @ [ o ]
                       else blk.instrs)
                     cfg))
      | _ -> None
    in
    Array.to_list cfg.blocks |> List.find_map try_block

  let run_func (f : Func.t) =
    let rec go cfg remaining =
      if remaining = 0 then cfg
      else
        match one_move cfg f with
        | Some cfg' -> go cfg' (remaining - 1)
        | None -> cfg
    in
    let budget = max 16 (8 * Func.instr_count f) in
    Func.with_body f (Cfg.linearize (go (Cfg.build f) budget))

  let run p = Prog.map_funcs run_func p
end

(* Printed bodies (which omit opids) plus every instruction's opid in
   body order. *)
let percolate_fingerprint (p : Prog.t) =
  ( Prog.to_string p,
    List.concat_map
      (fun (f : Func.t) -> List.map Instr.opid f.body)
      p.Prog.funcs )

let percolate_matches_naive (p : Prog.t) =
  percolate_fingerprint (Percolate.run p)
  = percolate_fingerprint (Naive_percolate.run p)

let check_matches_naive label p =
  Alcotest.(check bool) (label ^ " plain") true (percolate_matches_naive p);
  Alcotest.(check bool)
    (label ^ " renamed") true
    (percolate_matches_naive (Rename.run p))

let test_percolate_matches_naive_kernels () =
  List.iter
    (fun (name, p) -> check_matches_naive name p)
    (Lazy.force Dataflow_programs.kernels)

let test_percolate_matches_naive_corpus () =
  for seed = 0 to 3 do
    for index = 0 to 99 do
      let b = Asipfb_corpus.Gen.benchmark ~seed ~index () in
      check_matches_naive b.name (Asipfb_bench_suite.Benchmark.compile b)
    done
  done

let prop_percolate_matches_naive =
  QCheck2.Test.make ~name:"percolation matches the re-solving mover"
    ~count:60 Gen_minic.gen_program (fun src ->
      let p = compile src in
      percolate_matches_naive p && percolate_matches_naive (Rename.run p))

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
        Alcotest.test_case "matches the re-solving mover on kernels" `Quick
          test_percolate_matches_naive_kernels;
        Alcotest.test_case "matches the re-solving mover on the corpus" `Quick
          test_percolate_matches_naive_corpus;
        QCheck_alcotest.to_alcotest prop_percolate_matches_naive;
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
