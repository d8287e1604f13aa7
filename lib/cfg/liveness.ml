module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr

type t = {
  cfg : Cfg.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  (* block -> the live set before each position 0..n (entry n is
     live_out), filled by one backward sweep on the block's first query.
     Two domains racing to fill a slot compute the same table, so the race
     is benign. *)
  before : Reg.Set.t array option array;
}

(* Backward through one instruction: live = (live \ def) ∪ uses. *)
let step i live =
  let live =
    match Instr.def i with Some d -> Reg.Set.remove d live | None -> live
  in
  List.fold_left (fun s r -> Reg.Set.add r s) live (Instr.uses i)

let transfer (b : Cfg.block) out = List.fold_right step b.instrs out

(* Backward/may instance of the generic solver: facts are live register
   sets, merged by union (empty at exit blocks). *)
module Solver = Dataflow.Make (struct
  type fact = Reg.Set.t

  let direction = `Backward
  let init = Reg.Set.empty
  let merge _ = List.fold_left Reg.Set.union Reg.Set.empty
  let transfer = transfer
  let equal = Reg.Set.equal
end)

let compute (cfg : Cfg.t) : t =
  let { Solver.input; output } = Solver.solve cfg in
  {
    cfg;
    live_in = input;
    live_out = output;
    before = Array.make (Array.length cfg.blocks) None;
  }

let live_in t b = t.live_in.(b)
let live_out t b = t.live_out.(b)

let table t block =
  match t.before.(block) with
  | Some tbl -> tbl
  | None ->
      let instrs = Array.of_list t.cfg.blocks.(block).instrs in
      let n = Array.length instrs in
      let tbl = Array.make (n + 1) t.live_out.(block) in
      for pos = n - 1 downto 0 do
        tbl.(pos) <- step instrs.(pos) tbl.(pos + 1)
      done;
      t.before.(block) <- Some tbl;
      tbl

(* Positions past either end clamp, as a suffix of the block would. *)
let live_before t ~block ~pos =
  let tbl = table t block in
  tbl.(max 0 (min pos (Array.length tbl - 1)))
