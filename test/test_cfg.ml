(* CFG, dominator, loop and liveness tests over compiled mini-C shapes. *)

module Lower = Asipfb_frontend.Lower
module Prog = Asipfb_ir.Prog
module Func = Asipfb_ir.Func
module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Cfg = Asipfb_cfg.Cfg
module Dom = Asipfb_cfg.Dom
module Loops = Asipfb_cfg.Loops
module Liveness = Asipfb_cfg.Liveness

let cfg_of ?(func = "main") src =
  Cfg.build (Prog.find_func (Lower.compile src ~entry:"main") func)

let straight = "void main() { int x = 1; int y = x + 2; }"

let diamond =
  "int out[1]; void main() { int x = 1; if (x > 0) out[0] = 1; else out[0] = 2; out[0] = out[0] + 1; }"

let loop = "void main() { int i = 0; while (i < 4) { i++; } }"

let test_straight_line () =
  let cfg = cfg_of straight in
  Alcotest.(check int) "one block" 1 (Array.length cfg.blocks);
  Alcotest.(check (list int)) "no successors" [] cfg.blocks.(0).succs

let test_diamond_structure () =
  let cfg = cfg_of diamond in
  Alcotest.(check int) "four blocks" 4 (Array.length cfg.blocks);
  Alcotest.(check int) "entry has two successors" 2
    (List.length cfg.blocks.(0).succs);
  (* Join block has two predecessors. *)
  let join =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  Alcotest.(check bool) "join exists" true (join.index > 0)

let test_loop_structure () =
  let cfg = cfg_of loop in
  (* init / header / body / exit *)
  Alcotest.(check int) "four blocks" 4 (Array.length cfg.blocks);
  let header =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  Alcotest.(check bool) "header reached from below" true
    (List.exists (fun p -> p > header.index) header.preds)

let test_linearize_roundtrip () =
  List.iter
    (fun src ->
      let p = Lower.compile src ~entry:"main" in
      let f = Prog.find_func p "main" in
      let rebuilt = Func.with_body f (Cfg.linearize (Cfg.build f)) in
      let p' = Prog.update_func p "main" (fun _ -> rebuilt) in
      Asipfb_ir.Validate.check_exn p';
      (* Same non-label instructions in the same order. *)
      let strip f =
        List.filter (fun i -> not (Instr.is_label i)) f.Func.body
        |> List.map Instr.opid
      in
      Alcotest.(check (list int)) "instruction order preserved" (strip f)
        (strip rebuilt);
      (* And the rebuilt program still runs identically. *)
      let o1 = Asipfb_sim.Interp.run p in
      let o2 = Asipfb_sim.Interp.run p' in
      Alcotest.(check int) "same dynamic ops" o1.instrs_executed
        o2.instrs_executed)
    [ straight; diamond; loop ]

let test_dominators_diamond () =
  let cfg = cfg_of diamond in
  let dom = Dom.compute cfg in
  Alcotest.(check bool) "entry dominates all" true
    (Array.for_all (fun (b : Cfg.block) -> Dom.dominates dom 0 b.index)
       cfg.blocks);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 1 1);
  (* Neither branch arm dominates the join. *)
  let join =
    (Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2))
      .index
  in
  List.iter
    (fun arm ->
      if arm <> 0 && arm <> join then
        Alcotest.(check bool)
          (Printf.sprintf "block %d does not dominate join" arm)
          false
          (Dom.dominates dom arm join))
    (List.init (Array.length cfg.blocks) Fun.id)

let test_idom () =
  let cfg = cfg_of diamond in
  let dom = Dom.compute cfg in
  Alcotest.(check (option int)) "entry has no idom" None (Dom.idom dom 0);
  let join =
    (Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2))
      .index
  in
  Alcotest.(check (option int)) "join's idom is the branch" (Some 0)
    (Dom.idom dom join)

let test_natural_loops () =
  let cfg = cfg_of loop in
  let dom = Dom.compute cfg in
  let loops = Loops.find cfg dom in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  (match loops with
  | [ l ] ->
      Alcotest.(check int) "two-block body" 2 (List.length l.body);
      Alcotest.(check bool) "header in body" true (List.mem l.header l.body);
      Alcotest.(check bool) "not single block" false (Loops.is_single_block l)
  | _ -> assert false);
  Alcotest.(check int) "innermost keeps it" 1
    (List.length (Loops.innermost loops))

let test_nested_loops () =
  let src =
    "void main() { int i; int j; int s = 0; for (i = 0; i < 3; i++) { for (j = 0; j < 3; j++) { s++; } } }"
  in
  let cfg = cfg_of src in
  let dom = Dom.compute cfg in
  let loops = Loops.find cfg dom in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let inner = Loops.innermost loops in
  Alcotest.(check int) "one innermost" 1 (List.length inner);
  match (inner, loops) with
  | [ i ], [ a; b ] ->
      let outer = if a.header = i.header then b else a in
      Alcotest.(check bool) "inner body inside outer" true
        (List.for_all (fun blk -> List.mem blk outer.body) i.body)
  | _ -> Alcotest.fail "unexpected loop structure"

let test_liveness_loop () =
  let cfg = cfg_of loop in
  let live = Liveness.compute cfg in
  (* The induction variable is live into the loop header. *)
  let header =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  let live_names =
    Liveness.live_in live header.index
    |> Reg.Set.elements
    |> List.map Reg.name
  in
  Alcotest.(check bool) "i live at header" true (List.mem "i" live_names);
  (* Nothing is live at loop exit (no uses after). *)
  let exits =
    Array.to_list cfg.blocks
    |> List.filter (fun (b : Cfg.block) -> b.succs = [])
  in
  List.iter
    (fun (b : Cfg.block) ->
      Alcotest.(check int)
        (Printf.sprintf "nothing live out of block %d" b.index)
        0
        (Reg.Set.cardinal (Liveness.live_out live b.index)))
    exits

let test_live_before () =
  let src = "int out[1]; void main() { int a = 1; int b = 2; out[0] = a + b; }" in
  let cfg = cfg_of src in
  let live = Liveness.compute cfg in
  (* Before the first instruction nothing is live (a and b defined before
     use); before the add both are live. *)
  Alcotest.(check int) "entry has no live-in" 0
    (Reg.Set.cardinal (Liveness.live_before live ~block:0 ~pos:0));
  let n = List.length cfg.blocks.(0).instrs in
  (* position of the add: third instruction (a, b, add, store, ret) *)
  Alcotest.(check bool) "a,b live before add" true
    (Reg.Set.cardinal (Liveness.live_before live ~block:0 ~pos:2) >= 2);
  Alcotest.(check int) "nothing live at end" 0
    (Reg.Set.cardinal (Liveness.live_before live ~block:0 ~pos:n))

(* Differential check of the per-block position table against the
   textbook query: drop the block prefix and transfer the rest backward
   from live_out. *)
let naive_live_before live (cfg : Cfg.t) ~block ~pos =
  List.fold_right
    (fun i live ->
      let live =
        match Instr.def i with Some d -> Reg.Set.remove d live | None -> live
      in
      List.fold_left (fun s r -> Reg.Set.add r s) live (Instr.uses i))
    (Asipfb_util.Listx.drop pos cfg.blocks.(block).instrs)
    (Liveness.live_out live block)

let live_disagreement (f : Func.t) =
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  Array.to_list cfg.blocks
  |> List.find_map (fun (b : Cfg.block) ->
         List.init (List.length b.instrs + 1) Fun.id
         |> List.find_map (fun pos ->
                let got = Liveness.live_before live ~block:b.index ~pos
                and want = naive_live_before live cfg ~block:b.index ~pos in
                if Reg.Set.equal got want then None
                else Some (Printf.sprintf "block %d pos %d" b.index pos)))

let test_live_before_differential () =
  List.iter
    (fun (label, f) ->
      match live_disagreement f with
      | Some msg -> Alcotest.failf "%s: live_before differs at %s" label msg
      | None -> ())
    (Lazy.force Dataflow_programs.suite)

let prop_live_before_differential =
  QCheck2.Test.make ~name:"live_before agrees with the naive reference"
    ~count:40 Gen_minic.gen_program (fun src ->
      List.for_all
        (fun (label, f) ->
          match live_disagreement f with
          | None -> true
          | Some msg ->
              QCheck2.Test.fail_reportf "%s: live_before differs at %s" label
                msg)
        (Dataflow_programs.of_source src))

(* Direct use of the generic fixpoint framework: a forward may analysis
   ("some path defines the register") must pick up both branches of the
   diamond at the join, while a forward must analysis ("every path
   defines it") keeps only the common defs. *)
let test_dataflow_framework () =
  let module Dataflow = Asipfb_cfg.Dataflow in
  (* Each arm defines its own scalar, so the arms' defs differ. *)
  let cfg =
    cfg_of
      "int out[1]; void main() { int x = 1; if (x > 0) { int a = 2; out[0] \
       = a; } else { int b = 3; out[0] = b; } out[0] = out[0] + x; }"
  in
  let transfer (b : Cfg.block) defined =
    List.fold_left
      (fun acc i ->
        match Instr.def i with Some d -> Reg.Set.add d acc | None -> acc)
      defined b.instrs
  in
  let module May = Dataflow.Make (struct
    type fact = Reg.Set.t

    let direction = `Forward
    let init = Reg.Set.empty
    let merge _ = List.fold_left Reg.Set.union Reg.Set.empty
    let transfer = transfer
    let equal = Reg.Set.equal
  end) in
  let universe =
    Array.fold_left
      (fun acc b -> transfer b acc)
      Reg.Set.empty cfg.blocks
  in
  let module Must = Dataflow.Make (struct
    type fact = Reg.Set.t

    let direction = `Forward
    let init = universe

    let merge (b : Cfg.block) facts =
      let inflow =
        match facts with
        | [] -> universe
        | first :: rest -> List.fold_left Reg.Set.inter first rest
      in
      if b.index = 0 then Reg.Set.empty else inflow

    let transfer = transfer
    let equal = Reg.Set.equal
  end) in
  let may = May.solve cfg and must = Must.solve cfg in
  let join =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  Alcotest.(check bool)
    "must at join within may at join" true
    (Reg.Set.subset must.input.(join.index) may.input.(join.index));
  (* Branch-local defs survive the may merge but not the must merge:
     the two arms define different compiler temporaries. *)
  Alcotest.(check bool)
    "may at join strictly larger" true
    (Reg.Set.cardinal may.input.(join.index)
     > Reg.Set.cardinal must.input.(join.index));
  (* Entry-block defs are on every path, so must keeps them. *)
  Alcotest.(check bool)
    "entry defs definite at join" true
    (Reg.Set.subset
       (transfer cfg.blocks.(0) Reg.Set.empty)
       must.input.(join.index))

let suite =
  [
    ( "cfg",
      [
        Alcotest.test_case "straight line" `Quick test_straight_line;
        Alcotest.test_case "diamond" `Quick test_diamond_structure;
        Alcotest.test_case "loop" `Quick test_loop_structure;
        Alcotest.test_case "linearize round-trip" `Quick
          test_linearize_roundtrip;
      ] );
    ( "cfg.dom",
      [
        Alcotest.test_case "diamond dominators" `Quick test_dominators_diamond;
        Alcotest.test_case "immediate dominators" `Quick test_idom;
      ] );
    ( "cfg.loops",
      [
        Alcotest.test_case "natural loop" `Quick test_natural_loops;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
      ] );
    ( "cfg.liveness",
      [
        Alcotest.test_case "loop liveness" `Quick test_liveness_loop;
        Alcotest.test_case "live_before" `Quick test_live_before;
        Alcotest.test_case "live_before agrees with naive on the suite"
          `Quick test_live_before_differential;
        QCheck_alcotest.to_alcotest prop_live_before_differential;
      ] );
    ( "cfg.dataflow",
      [
        Alcotest.test_case "may/must framework" `Quick
          test_dataflow_framework;
      ] );
  ]
