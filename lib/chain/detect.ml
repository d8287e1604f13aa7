module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Profile = Asipfb_exec.Profile
module Schedule = Asipfb_sched.Schedule
module Ddg = Asipfb_sched.Ddg
module Opt_level = Asipfb_sched.Opt_level

type config = {
  length : int;
  min_freq : float;
  copies : int;
  banned : int list;
  budget : int option;
      (* max branch-and-bound nodes to visit across the whole run;
         [None] = unbounded (exact). On exhaustion the search degrades
         to the greedy adjacency scan and tags its output. *)
}

let default_config ~length =
  { length; min_freq = 0.5; copies = length; banned = []; budget = None }

(* Whether a result set covers the full search space or was cut short by
   a node budget and replaced by the greedy fallback. *)
type completeness = Exact | Budget_truncated

let completeness_to_string = function
  | Exact -> "exact"
  | Budget_truncated -> "budget-truncated"

exception Budget_exhausted

let spend = function
  | None -> ()
  | Some cell -> if !cell <= 0 then raise Budget_exhausted else decr cell

type occurrence = { opids : (int * int) list; count : int }

type detected = {
  classes : string list;
  freq : float;
  occurrences : occurrence list;
}

let display_name d = Chainop.sequence_name d.classes

(* Accumulates occurrences keyed by class list, deduplicating identical
   (opid, copy) member lists. *)
type accum = {
  table : (string list, (int * int) list list ref) Hashtbl.t;
  seen : ((int * int) list, unit) Hashtbl.t;
}

let new_accum () = { table = Hashtbl.create 64; seen = Hashtbl.create 256 }

let record accum classes members =
  if not (Hashtbl.mem accum.seen members) then begin
    Hashtbl.replace accum.seen members ();
    match Hashtbl.find_opt accum.table classes with
    | Some cell -> cell := members :: !cell
    | None -> Hashtbl.replace accum.table classes (ref [ members ])
  end

(* --- greedy level: literal adjacency in compiler-given order ----------- *)

(* Linear scan for chains of literally adjacent, flow-dependent ops. This
   is the whole story at O0, and the graceful-degradation fallback when an
   optimizing level's branch-and-bound search blows its node budget. *)
let scan_ops ops config ~profile accum =
  let n = Array.length ops in
  let banned i = List.mem (Instr.opid ops.(i)) config.banned in
  let feeds a b =
    match Instr.def a with
    | Some d -> List.exists (Reg.equal d) (Instr.uses b)
    | None -> false
  in
  for start = 0 to n - config.length do
    let members = List.init config.length (fun k -> start + k) in
    let eligible =
      List.for_all
        (fun i ->
          Chainop.eligible ops.(i) && (not (banned i))
          && Profile.count profile ~opid:(Instr.opid ops.(i)) > 0)
        members
    and stores_terminal =
      List.for_all
        (fun i ->
          (not (Chainop.terminal_only ops.(i)))
          || i = start + config.length - 1)
        members
    and chained =
      List.for_all
        (fun (i, j) -> feeds ops.(i) ops.(j))
        (Asipfb_util.Listx.pairs members)
    in
    if eligible && stores_terminal && chained then
      let classes =
        List.map
          (fun i ->
            match Chainop.class_of ops.(i) with
            | Some c -> c
            | None -> assert false)
          members
      in
      record accum classes
        (List.map (fun i -> (Instr.opid ops.(i), 0)) members)
  done

(* --- optimizing levels: branch-and-bound over the dependence graph ----- *)

let search_scope ddg ~copies ~budget config ~profile ~total accum =
  let ops = Ddg.ops ddg in
  let opid i = Instr.opid ops.(i) in
  let usable i =
    Chainop.eligible ops.(i)
    && (not (List.mem (opid i) config.banned))
    && Profile.count profile ~opid:(opid i) > 0
  in
  (* Bound: the best frequency any completion of this prefix can reach. *)
  let bound_ok joint_count =
    total > 0
    && float_of_int (joint_count * config.length)
       /. float_of_int total *. 100.0
       >= config.min_freq
  in
  (* path is reversed: most recent member first; q indexes from the path
     start for the consecutive-cycle check. *)
  let rec extend path len joint_count =
    spend budget;
    if len = config.length then begin
      let members =
        List.rev_map (fun (i, c) -> (opid i, c)) path
      in
      let classes =
        List.rev_map
          (fun (i, _) ->
            match Chainop.class_of ops.(i) with
            | Some cl -> cl
            | None -> assert false)
          path
      in
      record accum classes members
    end
    else
      match path with
      | [] -> ()
      | (j, cj) :: _ ->
          List.iter
            (fun (e : Ddg.edge) ->
              let k = e.dst and ck = cj + e.distance in
              if
                ck < copies && usable k
                && (not (List.mem (k, ck) path))
                && ((not (Chainop.terminal_only ops.(k)))
                   || len + 1 = config.length)
              then begin
                (* Every earlier member must be exactly (len - q) cycles
                   before the new op — no dependence path may force a larger
                   separation, or the ops cannot occupy consecutive chained
                   cycles. *)
                let consecutive =
                  List.for_all
                    (fun (q, (m, cm)) ->
                      Ddg.longest_path ddg ~copies (m, cm) (k, ck)
                      = Some (len - q))
                    (List.mapi (fun idx mem -> (len - 1 - idx, mem)) path)
                in
                if consecutive then begin
                  let joint =
                    min joint_count (Profile.count profile ~opid:(opid k))
                  in
                  if bound_ok joint then
                    extend ((k, ck) :: path) (len + 1) joint
                end
              end)
            (Ddg.flow_edges_from ddg j)
  in
  Array.iteri
    (fun i op ->
      if usable i && not (Chainop.terminal_only op) then begin
        let c = Profile.count profile ~opid:(opid i) in
        if bound_ok c then extend [ (i, 0) ] 1 c
      end)
    ops

(* --- driver ------------------------------------------------------------ *)

(* Visit every search scope of [sched]: each (kernel, non-kernel block)
   pair at optimizing levels, each block at O0. [on_ddg] receives the
   scope's dependence graph and copy count; O0 blocks go straight to the
   greedy adjacency scan. *)
let iter_scopes config ~profile accum (sched : Schedule.t) ~on_ddg =
  List.iter
    (fun (_name, (fs : Schedule.func_sched)) ->
      match sched.level with
      | Opt_level.O0 ->
          Array.iter
            (fun (b : Asipfb_cfg.Cfg.block) ->
              scan_ops (Array.of_list b.instrs) config ~profile accum)
            fs.cfg.blocks
      | Opt_level.O1 | Opt_level.O2 ->
          let kernel_blocks =
            List.concat_map
              (fun (k : Schedule.kernel) -> k.kernel_blocks)
              fs.kernels
          in
          List.iter
            (fun (k : Schedule.kernel) ->
              on_ddg k.kernel_ddg ~copies:config.copies)
            fs.kernels;
          Array.iter
            (fun (b : Asipfb_cfg.Cfg.block) ->
              if not (List.mem b.index kernel_blocks) then
                on_ddg fs.compacted.(b.index).ddg ~copies:1)
            fs.cfg.blocks)
    sched.funcs

let finalize config ~profile ~total accum =
  let joint_count members =
    List.fold_left
      (fun acc (opid, _) -> min acc (Profile.count profile ~opid))
      max_int members
  in
  let results =
    Hashtbl.fold
      (fun classes cell acc ->
        let occurrences =
          List.map (fun members -> { opids = members; count = joint_count members })
            !cell
        in
        (* Occurrences of one sequence may share static ops (the same pair
           can recur at several iteration offsets); a shared op's cycles are
           attributed once, keeping frequencies <= 100%. *)
        let distinct_opids =
          List.concat_map (fun o -> List.map fst o.opids) occurrences
          |> List.sort_uniq Int.compare
        in
        let dynamic_ops =
          List.fold_left
            (fun acc opid -> acc + Profile.count profile ~opid)
            0 distinct_opids
        in
        let freq =
          if total = 0 then 0.0
          else float_of_int dynamic_ops /. float_of_int total *. 100.0
        in
        { classes; freq; occurrences } :: acc)
      accum.table []
  in
  results
  |> List.filter (fun d -> d.freq >= config.min_freq)
  |> List.sort (fun a b -> Float.compare b.freq a.freq)

type report = { detections : detected list; completeness : completeness }

let check_config config =
  if config.length < 2 then invalid_arg "Detect.run: length must be >= 2"

(* Greedy-only result: linear adjacency scan over every scope. *)
let run_greedy config (sched : Schedule.t) ~profile : detected list =
  check_config config;
  let total = Profile.total profile in
  let accum = new_accum () in
  iter_scopes config ~profile accum sched ~on_ddg:(fun ddg ~copies:_ ->
      scan_ops (Ddg.ops ddg) config ~profile accum);
  finalize config ~profile ~total accum

let run_report config (sched : Schedule.t) ~profile : report =
  check_config config;
  let total = Profile.total profile in
  let budget = Option.map ref config.budget in
  let accum = new_accum () in
  let exact () =
    iter_scopes config ~profile accum sched ~on_ddg:(fun ddg ~copies ->
        search_scope ddg ~copies ~budget config ~profile ~total accum)
  in
  match exact () with
  | () ->
      { detections = finalize config ~profile ~total accum;
        completeness = Exact }
  | exception Budget_exhausted ->
      (* Degrade gracefully: discard the partial branch-and-bound state and
         fall back to the linear greedy scan, tagging the result so tables
         never pass truncated data off as exact. *)
      { detections = run_greedy config sched ~profile;
        completeness = Budget_truncated }

let run config (sched : Schedule.t) ~profile : detected list =
  (run_report config sched ~profile).detections
