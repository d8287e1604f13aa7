module Instr = Asipfb_ir.Instr
module Types = Asipfb_ir.Types

type machine = { issue_width : int; mem_ports : int; float_units : int }

let machine ?mem_ports ?float_units issue_width =
  let mem_ports = Option.value ~default:(max 1 (issue_width / 2)) mem_ports in
  let float_units =
    Option.value ~default:(max 1 (issue_width / 2)) float_units
  in
  if issue_width <= 0 || mem_ports <= 0 || float_units <= 0 then
    invalid_arg "Vliw.machine: resources must be positive";
  { issue_width; mem_ports; float_units }

let scalar = { issue_width = 1; mem_ports = 1; float_units = 1 }

let is_mem_op i =
  Instr.reads_memory i <> None || Instr.writes_memory i <> None

let is_float_op i =
  match Instr.kind i with
  | Instr.Binop (op, _, _, _) -> Types.binop_ty op = Types.Float
  | Instr.Unop (op, _, _) -> Types.unop_ty op = Types.Float
  | Instr.Cmp (Types.Float, _, _, _, _) -> true
  | Instr.Cmp (Types.Int, _, _, _, _)
  | Instr.Mov _ | Instr.Load _ | Instr.Store _ | Instr.Jump _
  | Instr.Cond_jump _ | Instr.Call _ | Instr.Ret _ | Instr.Label_mark _ ->
      false

(* Longest path from each op to any sink — the classic list-scheduling
   priority. *)
let criticality ddg n =
  let height = Array.make n 0 in
  for i = n - 1 downto 0 do
    List.iter
      (fun (e : Ddg.edge) ->
        if e.distance = 0 then
          height.(i) <- max height.(i) (e.latency + height.(e.dst)))
      (Ddg.succs ddg i)
  done;
  height

let schedule_block ?latency m ops =
  let n = Array.length ops in
  if n = 0 then ([||], 0)
  else begin
    let ddg = Ddg.build ~carried:false ?latency ops in
    let height = criticality ddg n in
    let cycle = Array.make n (-1) in
    let unscheduled_preds = Array.make n 0 in
    Array.iteri
      (fun i _ ->
        unscheduled_preds.(i) <-
          List.length
            (List.filter (fun (e : Ddg.edge) -> e.distance = 0) (Ddg.preds ddg i)))
      ops;
    let earliest = Array.make n 0 in
    let scheduled = ref 0 in
    let t = ref 0 in
    while !scheduled < n do
      (* Ready ops whose dependence-imposed earliest cycle has arrived,
         highest criticality first. *)
      let ready =
        List.init n Fun.id
        |> List.filter (fun i ->
               cycle.(i) < 0 && unscheduled_preds.(i) = 0 && earliest.(i) <= !t)
        |> List.sort (fun a b -> Int.compare height.(b) height.(a))
      in
      let issued = ref 0 and mem = ref 0 and fl = ref 0 in
      List.iter
        (fun i ->
          let needs_mem = is_mem_op ops.(i) in
          let needs_float = is_float_op ops.(i) in
          if
            !issued < m.issue_width
            && ((not needs_mem) || !mem < m.mem_ports)
            && ((not needs_float) || !fl < m.float_units)
          then begin
            cycle.(i) <- !t;
            incr issued;
            if needs_mem then incr mem;
            if needs_float then incr fl;
            incr scheduled;
            List.iter
              (fun (e : Ddg.edge) ->
                if e.distance = 0 then begin
                  unscheduled_preds.(e.dst) <- unscheduled_preds.(e.dst) - 1;
                  earliest.(e.dst) <-
                    max earliest.(e.dst) (!t + e.latency)
                end)
              (Ddg.succs ddg i)
          end)
        ready;
      incr t
    done;
    let length = Array.fold_left (fun acc c -> max acc (c + 1)) 0 cycle in
    (cycle, length)
  end

type estimate = { widths : (int * int) list; scalar_cycles : int }

let block_exec_count profile (ops : Instr.t list) =
  List.fold_left
    (fun acc i ->
      max acc (Asipfb_exec.Profile.count profile ~opid:(Instr.opid i)))
    0 ops

let dynamic_cycles ?latency m prog ~profile =
  List.fold_left
    (fun acc (f : Asipfb_ir.Func.t) ->
      let cfg = Asipfb_cfg.Cfg.build f in
      Array.fold_left
        (fun acc (b : Asipfb_cfg.Cfg.block) ->
          let _, len = schedule_block ?latency m (Array.of_list b.instrs) in
          acc + (len * block_exec_count profile b.instrs))
        acc cfg.blocks)
    0 prog.Asipfb_ir.Prog.funcs

let characterize ?(widths = [ 1; 2; 4; 8 ]) ?latency prog ~profile =
  let per_width =
    List.map
      (fun w -> (w, dynamic_cycles ?latency (machine w) prog ~profile))
      widths
  in
  let scalar_cycles =
    match List.assoc_opt 1 per_width with
    | Some c -> c
    | None -> dynamic_cycles ?latency scalar prog ~profile
  in
  { widths = per_width; scalar_cycles }

let speedup_at e w =
  match List.assoc_opt w e.widths with
  | Some c when c > 0 -> float_of_int e.scalar_cycles /. float_of_int c
  | Some _ -> 1.0
  | None -> raise Not_found
