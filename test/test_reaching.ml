(* Reaching-definitions and def-use chain tests. *)

module Lower = Asipfb_frontend.Lower
module Prog = Asipfb_ir.Prog
module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Cfg = Asipfb_cfg.Cfg
module Reaching = Asipfb_cfg.Reaching

let setup src =
  let p = Lower.compile src ~entry:"main" in
  let f = Prog.find_func p "main" in
  let cfg = Cfg.build f in
  (f, cfg, Reaching.compute cfg)

(* Find the opid of the k-th instruction satisfying [pred]. *)
let opid_of (f : Asipfb_ir.Func.t) pred =
  match List.find_opt pred f.body with
  | Some i -> Instr.opid i
  | None -> Alcotest.fail "instruction not found"

let defines_named name i =
  match Instr.def i with Some d -> Reg.name d = name | None -> false

let test_straight_line_kill () =
  let _, _, r =
    setup "int out[1]; void main() { int x = 1; x = 2; out[0] = x; }"
  in
  ignore r;
  (* With both defs in one block, only the second reaches the exit. *)
  let f, cfg, r =
    setup "int out[1]; void main() { int x = 1; x = 2; out[0] = x; }"
  in
  ignore cfg;
  let first = opid_of f (defines_named "x") in
  let out = Reaching.reach_out r 0 in
  Alcotest.(check bool) "first def killed" false (List.mem first out);
  Alcotest.(check bool) "some def of x reaches" true (out <> [])

let test_branch_merge () =
  let f, cfg, r =
    setup
      "int out[1]; void main() { int x = 1; if (out[0] > 0) x = 2; else x = 3; out[0] = x; }"
  in
  (* The join block sees both branch definitions but not the initial one. *)
  let join =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  let reaching = Reaching.reach_in r join.index in
  let defs_of_x =
    List.filter
      (fun opid ->
        List.exists
          (fun i -> Instr.opid i = opid && defines_named "x" i)
          f.body)
      reaching
  in
  Alcotest.(check int) "two defs of x reach the join" 2
    (List.length defs_of_x)

let test_loop_def_reaches_itself () =
  let f, cfg, r =
    setup "void main() { int i = 0; while (i < 4) { i = i + 1; } }"
  in
  (* The loop-body increment reaches the loop header (around the back
     edge). *)
  let body_def =
    opid_of f (fun i ->
        match Instr.kind i with
        | Instr.Binop (Asipfb_ir.Types.Add, d, _, _) -> Reg.name d = "i"
        | _ -> false)
  in
  let header =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.block) -> List.length b.preds = 2)
  in
  Alcotest.(check bool) "increment reaches header" true
    (List.mem body_def (Reaching.reach_in r header.index))

let test_defs_reaching_use () =
  let f, cfg, r =
    setup "int out[1]; void main() { int x = 5; int y = x + 1; out[0] = y; }"
  in
  ignore cfg;
  (* The use of x in the addition sees exactly the single definition. *)
  let def_x = opid_of f (defines_named "x") in
  let x_reg =
    match
      List.find_opt (defines_named "x") f.body
    with
    | Some i -> (match Instr.def i with Some d -> d | None -> assert false)
    | None -> assert false
  in
  (* Position of the add in block 0. *)
  let pos =
    match
      Asipfb_util.Listx.index_of
        (fun i ->
          match Instr.kind i with
          | Instr.Binop (Asipfb_ir.Types.Add, _, _, _) -> true
          | _ -> false)
        f.body
    with
    | Some p -> p
    | None -> Alcotest.fail "no add"
  in
  Alcotest.(check (list int)) "single reaching def" [ def_x ]
    (Reaching.defs_reaching_use r ~block:0 ~pos ~reg:x_reg)

let test_du_chains () =
  let f, _, r =
    setup
      "int out[2]; void main() { int x = 5; out[0] = x; out[1] = x * 2; }"
  in
  let def_x = opid_of f (defines_named "x") in
  let chains = Reaching.du_chains r in
  match List.assoc_opt def_x chains with
  | Some uses -> Alcotest.(check int) "x used twice" 2 (List.length uses)
  | None -> Alcotest.fail "def of x has no chain"

let test_single_def_uses () =
  let f, _, r =
    setup
      "int out[1]; void main() { int a = 1; int b; if (out[0] > 0) b = 2; else b = 3; out[0] = a + b; }"
  in
  let def_a = opid_of f (defines_named "a") in
  let singles = Reaching.single_def_uses r in
  Alcotest.(check bool) "a is single-def at its use" true
    (List.mem def_a singles);
  (* b has two reaching defs at its use, so neither qualifies. *)
  let b_defs =
    List.filter_map
      (fun i ->
        if defines_named "b" i then Some (Instr.opid i) else None)
      f.body
  in
  List.iter
    (fun opid ->
      Alcotest.(check bool) "b defs not single" false (List.mem opid singles))
    b_defs

let prop_reaching_terminates_and_sound =
  QCheck2.Test.make ~name:"every use has a reaching def on random programs"
    ~count:50 Gen_minic.gen_program (fun src ->
      let p = Lower.compile src ~entry:"main" in
      let f = Prog.find_func p "main" in
      let cfg = Cfg.build f in
      let r = Reaching.compute cfg in
      (* Every register use whose register is defined somewhere in the
         function must see at least one reaching definition (our generator
         initializes every variable before use). *)
      let defined_regs = Asipfb_ir.Func.defined_regs f in
      Array.for_all
        (fun (b : Cfg.block) ->
          List.for_all
            (fun (pos, i) ->
              List.for_all
                (fun reg ->
                  (not (Asipfb_ir.Reg.Set.mem reg defined_regs))
                  || Reaching.defs_reaching_use r ~block:b.index ~pos ~reg
                     <> [])
                (Instr.uses i))
            (List.mapi (fun pos i -> (pos, i)) b.instrs))
        cfg.blocks)

(* Chains are part of the --json surface: they must come out sorted and
   identical across recomputations. *)
let test_du_chains_deterministic () =
  let src =
    "int out[4]; void main() { int x = 1; int y = 2; int k; for (k = 0; k \
     < 4; k++) { x = x + y; out[k] = x; } out[0] = x + y; }"
  in
  let _, _, r1 = setup src in
  let _, _, r2 = setup src in
  let c1 = Reaching.du_chains r1 and c2 = Reaching.du_chains r2 in
  Alcotest.(check bool) "identical across runs" true (c1 = c2);
  Alcotest.(check bool)
    "sorted by def opid" true
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) c1 = c1);
  List.iter
    (fun (_, uses) ->
      Alcotest.(check bool)
        "uses sorted by site" true
        (List.sort compare uses = uses))
    c1;
  let o1 = Reaching.du_chains_opids r1 in
  Alcotest.(check bool)
    "opid chains sorted and deduped" true
    (List.for_all
       (fun (_, us) -> List.sort_uniq Int.compare us = us)
       o1
    && List.sort (fun (a, _) (b, _) -> Int.compare a b) o1 = o1)

(* --- differential check against a naive reference ------------------------- *)

(* The textbook formulation: the fact is a flat set of def opids, a
   definition kills every other def of its register, and a query at
   (block, pos) replays the block prefix from the entry fact. *)
module Naive = struct
  module Int_set = Set.Make (Int)

  type t = {
    cfg : Cfg.t;
    reach_in : Int_set.t array;
    reach_out : Int_set.t array;
    def_reg : (int, Reg.t) Hashtbl.t;
  }

  let transfer def_reg reaching i =
    match Instr.def i with
    | None -> reaching
    | Some d ->
        Int_set.add (Instr.opid i)
          (Int_set.filter
             (fun opid ->
               match Hashtbl.find_opt def_reg opid with
               | Some r -> not (Reg.equal r d)
               | None -> true)
             reaching)

  let compute (cfg : Cfg.t) =
    let def_reg = Hashtbl.create 64 in
    Array.iter
      (fun (b : Cfg.block) ->
        List.iter
          (fun i ->
            Option.iter (Hashtbl.replace def_reg (Instr.opid i)) (Instr.def i))
          b.instrs)
      cfg.blocks;
    let module Solver = Asipfb_cfg.Dataflow.Make (struct
      type fact = Int_set.t

      let direction = `Forward
      let init = Int_set.empty
      let merge _ = List.fold_left Int_set.union Int_set.empty

      let transfer (b : Cfg.block) inn =
        List.fold_left (transfer def_reg) inn b.instrs

      let equal = Int_set.equal
    end) in
    let { Solver.input; output } = Solver.solve cfg in
    { cfg; reach_in = input; reach_out = output; def_reg }

  let reaching_at t ~block ~pos =
    List.fold_left (transfer t.def_reg) t.reach_in.(block)
      (Asipfb_util.Listx.take pos t.cfg.blocks.(block).instrs)

  let defs_of t reaching reg =
    reaching
    |> Int_set.filter (fun opid ->
           match Hashtbl.find_opt t.def_reg opid with
           | Some r -> Reg.equal r reg
           | None -> false)
    |> Int_set.elements

  let defs_reaching_use t ~block ~pos ~reg =
    defs_of t (reaching_at t ~block ~pos) reg

  let du_chains t =
    let uses_of_def = Hashtbl.create 64 in
    Array.iter
      (fun (b : Cfg.block) ->
        List.iteri
          (fun pos i ->
            List.iter
              (fun reg ->
                List.iter
                  (fun d ->
                    let prev =
                      Option.value ~default:[] (Hashtbl.find_opt uses_of_def d)
                    in
                    Hashtbl.replace uses_of_def d ((b.index, pos) :: prev))
                  (defs_reaching_use t ~block:b.index ~pos ~reg))
              (Asipfb_util.Listx.dedup Reg.equal (Instr.uses i)))
          b.instrs)
      t.cfg.blocks;
    Hashtbl.fold (fun d uses acc -> (d, List.sort compare uses) :: acc)
      uses_of_def []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
end

(* Compare every query of [Reaching] with [Naive] on one function; the
   first disagreement is returned as a message. *)
let reaching_disagreement (f : Asipfb_ir.Func.t) =
  let cfg = Cfg.build f in
  let r = Reaching.compute cfg and n = Naive.compute cfg in
  let regs =
    Reg.Set.elements
      (Reg.Set.union (Asipfb_ir.Func.defined_regs f) (Asipfb_ir.Func.used_regs f))
  in
  let fail fmt = Printf.ksprintf Option.some fmt in
  let ints l = String.concat "," (List.map string_of_int l) in
  let check_block (b : Cfg.block) =
    let bi = b.index in
    if Reaching.reach_in r bi <> Naive.Int_set.elements n.reach_in.(bi) then
      fail "reach_in of block %d" bi
    else if Reaching.reach_out r bi <> Naive.Int_set.elements n.reach_out.(bi)
    then fail "reach_out of block %d" bi
    else
      let rec at pos =
        if pos > List.length b.instrs then None
        else
          let here = Naive.reaching_at n ~block:bi ~pos in
          let bad =
            List.find_opt
              (fun reg ->
                Reaching.defs_reaching_use r ~block:bi ~pos ~reg
                <> Naive.defs_of n here reg)
              regs
          in
          match bad with
          | Some reg ->
              fail "block %d pos %d %s: got [%s], naive [%s]" bi pos
                (Reg.to_string reg)
                (ints (Reaching.defs_reaching_use r ~block:bi ~pos ~reg))
                (ints (Naive.defs_reaching_use n ~block:bi ~pos ~reg))
          | None -> at (pos + 1)
      in
      at 0
  in
  match Array.to_list cfg.blocks |> List.find_map check_block with
  | Some _ as m -> m
  | None ->
      let chains = Naive.du_chains n in
      if Reaching.du_chains r <> chains then fail "du_chains"
      else
        let opids =
          List.map
            (fun (d, uses) ->
              ( d,
                List.sort_uniq Int.compare
                  (List.map
                     (fun (b, p) ->
                       Instr.opid (List.nth cfg.blocks.(b).instrs p))
                     uses) ))
            chains
        in
        if Reaching.du_chains_opids r <> opids then fail "du_chains_opids"
        else None

let test_differential_suite () =
  List.iter
    (fun (label, f) ->
      match reaching_disagreement f with
      | Some msg -> Alcotest.failf "%s: %s" label msg
      | None -> ())
    (Lazy.force Dataflow_programs.suite)

let prop_differential_generated =
  QCheck2.Test.make ~name:"reaching agrees with the naive reference"
    ~count:40 Gen_minic.gen_program (fun src ->
      List.for_all
        (fun (label, f) ->
          match reaching_disagreement f with
          | None -> true
          | Some msg -> QCheck2.Test.fail_reportf "%s: %s" label msg)
        (Dataflow_programs.of_source src))

let suite =
  [
    ( "cfg.reaching",
      [
        Alcotest.test_case "straight-line kill" `Quick test_straight_line_kill;
        Alcotest.test_case "branch merge" `Quick test_branch_merge;
        Alcotest.test_case "loop back edge" `Quick test_loop_def_reaches_itself;
        Alcotest.test_case "defs reaching a use" `Quick test_defs_reaching_use;
        Alcotest.test_case "def-use chains" `Quick test_du_chains;
        Alcotest.test_case "du chains deterministic" `Quick
          test_du_chains_deterministic;
        Alcotest.test_case "single-def uses" `Quick test_single_def_uses;
        QCheck_alcotest.to_alcotest prop_reaching_terminates_and_sound;
        Alcotest.test_case "agrees with naive on the suite" `Quick
          test_differential_suite;
        QCheck_alcotest.to_alcotest prop_differential_generated;
      ] );
  ]
