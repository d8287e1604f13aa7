module Instr = Asipfb_ir.Instr
module Ddg = Asipfb_sched.Ddg
module Schedule = Asipfb_sched.Schedule
module Detect = Asipfb_chain.Detect

type estimate = { base_cycles : int; chained_cycles : int; speedup : float }

(* Opid pairs fused by the chosen chains: adjacent members of every
   occurrence of a chosen shape. *)
let fused_pairs (choices : Select.choice list)
    (detections : Detect.detected list) =
  let chosen_shapes = List.map (fun (c : Select.choice) -> c.classes) choices in
  List.concat_map
    (fun (d : Detect.detected) ->
      if List.mem d.classes chosen_shapes then
        List.concat_map
          (fun (o : Detect.occurrence) ->
            Asipfb_util.Listx.pairs (List.map fst o.opids))
          d.occurrences
      else [])
    detections

(* ASAP length of a block where fused flow edges cost 0 cycles and every
   other edge carries the uarch's per-opcode latency (1 everywhere under
   flat). *)
let block_length ~uarch ~pairs ops =
  let n = Array.length ops in
  if n = 0 then 0
  else begin
    let latency = Uarch.instr_latency uarch in
    let ddg = Ddg.build ~carried:false ~latency ops in
    let cycle = Array.make n 0 in
    for j = 0 to n - 1 do
      List.iter
        (fun (e : Ddg.edge) ->
          if e.distance = 0 then begin
            let latency =
              if
                e.kind = Ddg.Flow && e.via_register
                && List.mem
                     (Instr.opid ops.(e.src), Instr.opid ops.(e.dst))
                     pairs
              then 0
              else e.latency
            in
            cycle.(j) <- max cycle.(j) (cycle.(e.src) + latency)
          end)
        (Ddg.preds ddg j)
    done;
    let len = ref 0 in
    for j = 0 to n - 1 do
      len := max !len (cycle.(j) + latency ops.(j))
    done;
    !len
  end

let block_exec_count profile ops =
  Array.fold_left
    (fun acc i ->
      max acc (Asipfb_exec.Profile.count profile ~opid:(Instr.opid i)))
    0 ops

let dynamic_cycles ~uarch ~pairs (sched : Schedule.t) ~profile =
  List.fold_left
    (fun acc (_, (fs : Schedule.func_sched)) ->
      Array.fold_left
        (fun acc (b : Asipfb_cfg.Cfg.block) ->
          let ops = Array.of_list b.instrs in
          acc + (block_length ~uarch ~pairs ops * block_exec_count profile ops))
        acc fs.cfg.blocks)
    0 sched.funcs

let estimate ?(uarch = Uarch.flat) sched ~profile ~choices ~detections =
  let pairs = fused_pairs choices detections in
  let base_cycles = dynamic_cycles ~uarch ~pairs:[] sched ~profile in
  let chained_cycles = dynamic_cycles ~uarch ~pairs sched ~profile in
  {
    base_cycles;
    chained_cycles;
    speedup =
      (if chained_cycles <= 0 then 1.0
       else float_of_int base_cycles /. float_of_int chained_cycles);
  }
