module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Cfg = Asipfb_cfg.Cfg
module Dom = Asipfb_cfg.Dom
module Loops = Asipfb_cfg.Loops

type kernel = {
  kernel_blocks : int list;
  kernel_ops : Instr.t array;
  kernel_ddg : Ddg.t;
}

type func_sched = {
  func : Func.t;
  cfg : Cfg.t;
  compacted : Compact.t array;
  kernels : kernel list;
}

type t = {
  prog : Prog.t;
  level : Opt_level.t;
  funcs : (string * func_sched) list;
}

let make_kernel (cfg : Cfg.t) blocks =
  let kernel_ops =
    Array.of_list (List.concat_map (fun b -> cfg.blocks.(b).instrs) blocks)
  in
  {
    kernel_blocks = blocks;
    kernel_ops;
    kernel_ddg = Ddg.build ~carried:true kernel_ops;
  }

(* A pipelinable loop body is a single path of blocks H → B1 → … → Bk → H:
   starting at the header, each block has exactly one in-loop successor
   (side exits out of the loop are fine — that is how the header and any
   unrolled test blocks leave), and the path visits every body block once
   before returning to the header.  The two-block while shape and its
   unrolled variants are both instances. *)
let path_of_loop (cfg : Cfg.t) (l : Loops.loop) : int list option =
  let in_loop b = List.mem b l.body in
  let rec walk visited current =
    let successors_in_loop =
      List.filter in_loop
        (Asipfb_util.Listx.dedup ( = ) cfg.blocks.(current).succs)
    in
    match successors_in_loop with
    | [ next ] ->
        if next = l.header then
          if List.length visited = List.length l.body then
            Some (List.rev visited)
          else None
        else if List.mem next visited then None
        else walk (next :: visited) next
    | [] | _ :: _ -> None
  in
  if l.body = [ l.header ] then Some [ l.header ]
  else walk [ l.header ] l.header

let find_kernels (cfg : Cfg.t) : kernel list =
  let dom = Dom.compute cfg in
  let loops = Loops.innermost (Loops.find cfg dom) in
  List.filter_map
    (fun (l : Loops.loop) ->
      match path_of_loop cfg l with
      | Some blocks -> Some (make_kernel cfg blocks)
      | None -> None)
    loops

let sched_of_func f =
  let cfg = Cfg.build f in
  let compacted =
    Array.map
      (fun (b : Cfg.block) -> Compact.schedule (Array.of_list b.instrs))
      cfg.blocks
  in
  { func = f; cfg; compacted; kernels = find_kernels cfg }

let optimize_custom ?(rename = true) ?(percolate = true) ?(pipeline = true)
    (p : Prog.t) : t =
  let transformed =
    let p = if rename then Rename.run p else p in
    if percolate then Percolate.run p else p
  in
  let funcs =
    List.map
      (fun (f : Func.t) ->
        let fs = sched_of_func f in
        let fs = if pipeline then fs else { fs with kernels = [] } in
        (f.name, fs))
      transformed.funcs
  in
  { prog = transformed; level = Opt_level.O1; funcs }

let optimize ~level (p : Prog.t) : t =
  let transformed =
    match level with
    | Opt_level.O0 -> p
    | Opt_level.O1 -> Percolate.run p
    | Opt_level.O2 -> Percolate.run (Rename.run p)
  in
  let funcs =
    List.map
      (fun (f : Func.t) ->
        let fs = sched_of_func f in
        let fs =
          (* Kernels model loop pipelining: only at the optimizing levels. *)
          match level with
          | Opt_level.O0 -> { fs with kernels = [] }
          | Opt_level.O1 | Opt_level.O2 -> fs
        in
        (f.name, fs))
      transformed.funcs
  in
  { prog = transformed; level; funcs }

let func_sched t name =
  match List.assoc_opt name t.funcs with
  | Some fs -> fs
  | None -> raise Not_found

let ilp t name =
  match t.level with
  | Opt_level.O0 -> 1.0
  | Opt_level.O1 | Opt_level.O2 ->
      let fs = func_sched t name in
      let non_empty =
        Array.to_list fs.compacted
        |> List.filter (fun (c : Compact.t) -> c.length > 0)
      in
      if non_empty = [] then 1.0
      else
        Asipfb_util.Listx.sum_by Compact.ops_per_cycle non_empty
        /. float_of_int (List.length non_empty)
