module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg

type kind = Flow | Anti | Output | Mem_order | Control

type edge = {
  src : int;
  dst : int;
  kind : kind;
  latency : int;
  distance : int;
  via_register : bool;
}

type t = {
  ops : Instr.t array;
  edges : edge list;
  succ : edge list array;
  pred : edge list array;
  (* Longest-path matrices keyed by unroll copy count.  A DDG lives in a
     cached schedule that concurrent readers share (report artifacts,
     daemon requests), so the memo is published atomically: a reader
     sees either no matrix or a complete one.  Two domains may both
     compute a missing matrix; they agree, so the last write wins. *)
  lp_cache : (int * int array array) list Atomic.t;
}

let ops t = t.ops
let edges t = t.edges
let succs t i = t.succ.(i)
let preds t i = t.pred.(i)

let defs_reg i r =
  match Instr.def i with Some d -> Reg.equal d r | None -> false

let uses_reg i r = List.exists (Reg.equal r) (Instr.uses i)

let is_call i =
  match Instr.kind i with
  | Instr.Call _ -> true
  | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _ | Instr.Load _
  | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _ | Instr.Ret _
  | Instr.Label_mark _ ->
      false

let touches_memory i =
  Instr.reads_memory i <> None || Instr.writes_memory i <> None || is_call i

(* Intra-iteration edges between positions i < j. *)
let intra_edges ops =
  let n = Array.length ops in
  let acc = ref [] in
  let add ?(via_register = false) src dst kind latency =
    acc := { src; dst; kind; latency; distance = 0; via_register } :: !acc
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = ops.(i) and b = ops.(j) in
      (* Register dependences. *)
      (match Instr.def a with
      | Some d ->
          if uses_reg b d then add ~via_register:true i j Flow 1;
          if defs_reg b d then add i j Output 1
      | None -> ());
      (match Instr.def b with
      | Some d -> if uses_reg a d then add i j Anti 0
      | None -> ());
      (* Memory dependences at region granularity. *)
      (match (Instr.writes_memory a, Instr.reads_memory b) with
      | Some ra, Some rb when ra = rb -> add i j Flow 1
      | _ -> ());
      (match (Instr.reads_memory a, Instr.writes_memory b) with
      | Some ra, Some rb when ra = rb -> add i j Anti 0
      | _ -> ());
      (match (Instr.writes_memory a, Instr.writes_memory b) with
      | Some ra, Some rb when ra = rb -> add i j Output 1
      | _ -> ());
      (* Calls order against all memory traffic and each other. *)
      if (is_call a && touches_memory b) || (is_call b && touches_memory a)
      then add i j Mem_order 1;
      (* Everything stays at or before the block terminator. *)
      if Instr.is_control b then add i j Control 0
    done
  done;
  List.rev !acc

(* Distance-1 (loop-carried) edges: the block is a loop body executed
   repeatedly, so values flow from an iteration's last definition to the
   next iteration's upward-exposed uses, and memory written this iteration
   reaches next iteration's accesses. *)
let carried_edges ops =
  let n = Array.length ops in
  let acc = ref [] in
  let add ?(via_register = false) src dst kind latency =
    acc := { src; dst; kind; latency; distance = 1; via_register } :: !acc
  in
  let last_def_of r =
    let rec go i = if i < 0 then None
      else if defs_reg ops.(i) r then Some i
      else go (i - 1)
    in
    go (n - 1)
  in
  let first_def_of r =
    let rec go i = if i >= n then None
      else if defs_reg ops.(i) r then Some i
      else go (i + 1)
    in
    go 0
  in
  for j = 0 to n - 1 do
    List.iter
      (fun r ->
        (* Upward-exposed use: no def of r strictly before j. *)
        let exposed =
          not (Array.exists (fun k -> k) (Array.init j (fun k -> defs_reg ops.(k) r)))
        in
        if exposed then
          match last_def_of r with
          | Some i -> add ~via_register:true i j Flow 1
          | None -> ())
      (Instr.uses ops.(j))
  done;
  (* Output and anti edges around the back edge. *)
  for j = 0 to n - 1 do
    match Instr.def ops.(j) with
    | Some d -> (
        (match (last_def_of d, first_def_of d) with
        | Some last, Some first when j = first && last <> first ->
            add last j Output 1
        | _ -> ());
        (* A use of d this iteration precedes next iteration's first def. *)
        for i = 0 to n - 1 do
          if uses_reg ops.(i) d && first_def_of d = Some j then
            add i j Anti 0
        done)
    | None -> ()
  done;
  (* Memory, conservative per region. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (match (Instr.writes_memory ops.(i), Instr.reads_memory ops.(j)) with
      | Some ra, Some rb when ra = rb -> add i j Flow 1
      | _ -> ());
      (match (Instr.writes_memory ops.(i), Instr.writes_memory ops.(j)) with
      | Some ra, Some rb when ra = rb -> add i j Output 1
      | _ -> ());
      (match (Instr.reads_memory ops.(i), Instr.writes_memory ops.(j)) with
      | Some ra, Some rb when ra = rb -> add i j Anti 0
      | _ -> ())
    done
  done;
  List.rev !acc

let build ?(carried = false) ?latency ops =
  let edges =
    intra_edges ops @ (if carried then carried_edges ops else [])
  in
  (* Per-opcode latencies reweight register def->use flow only: memory
     and ordering edges constrain issue order, not result availability. *)
  let edges =
    match latency with
    | None -> edges
    | Some lat ->
        List.map
          (fun e ->
            if e.kind = Flow && e.via_register then
              { e with latency = max 1 (lat ops.(e.src)) }
            else e)
          edges
  in
  let n = Array.length ops in
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun e ->
      succ.(e.src) <- e :: succ.(e.src);
      pred.(e.dst) <- e :: pred.(e.dst))
    edges;
  { ops; edges; succ; pred; lp_cache = Atomic.make [] }

let flow_edges_from t i =
  List.filter (fun e -> e.kind = Flow && e.via_register) t.succ.(i)

(* Longest-path matrix over the [copies]-times unrolled graph.  Node id of
   (op i, copy c) is [c * n + i]; all edges point lexicographically forward
   in (copy, position), so ids ascend along every edge and a single forward
   DP sweep computes all-pairs longest paths. *)
let matrix t ~copies =
  match List.assoc_opt copies (Atomic.get t.lp_cache) with
  | Some m -> m
  | None ->
      let n = Array.length t.ops in
      let size = n * copies in
      let dist = Array.make_matrix size size min_int in
      let expanded_succ = Array.make size [] in
      for c = 0 to copies - 1 do
        List.iter
          (fun e ->
            let cc = c + e.distance in
            if cc < copies then
              expanded_succ.((c * n) + e.src) <-
                ((cc * n) + e.dst, e.latency)
                :: expanded_succ.((c * n) + e.src))
          t.edges
      done;
      for src = size - 1 downto 0 do
        dist.(src).(src) <- 0;
        List.iter
          (fun (mid, lat) ->
            for dst = 0 to size - 1 do
              if dist.(mid).(dst) > min_int then
                let via = lat + dist.(mid).(dst) in
                if via > dist.(src).(dst) then dist.(src).(dst) <- via
            done)
          expanded_succ.(src)
      done;
      Atomic.set t.lp_cache ((copies, dist) :: Atomic.get t.lp_cache);
      dist

let longest_path t ~copies (i, ci) (j, cj) =
  let n = Array.length t.ops in
  if ci < 0 || cj < 0 || ci >= copies || cj >= copies then
    invalid_arg "Ddg.longest_path: copy index out of range";
  let m = matrix t ~copies in
  let d = m.((ci * n) + i).((cj * n) + j) in
  if d = min_int then None else Some d

let string_of_kind = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "out"
  | Mem_order -> "mem"
  | Control -> "ctl"

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i op -> Format.fprintf fmt "%d: %a@," i Instr.pp op) t.ops;
  List.iter
    (fun e ->
      Format.fprintf fmt "%d -%s/%d/%d-> %d@," e.src (string_of_kind e.kind)
        e.latency e.distance e.dst)
    t.edges;
  Format.fprintf fmt "@]"
