module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Cfg = Asipfb_cfg.Cfg
module Defined = Asipfb_cfg.Defined
module Liveness = Asipfb_cfg.Liveness
module Diag = Asipfb_diag.Diag

let warn ~func ~rule ?(context = []) message =
  Diag.make ~severity:Diag.Warning ~stage:Diag.Verification
    ~context:([ ("check", rule); ("function", func) ] @ context)
    message

(* --- maybe-uninitialized reads ------------------------------------------ *)

(* A read is suspect when some path from the entry reaches it without
   assigning the register (definite assignment, {!Asipfb_cfg.Defined}). *)
let uninit_reads (f : Func.t) (cfg : Cfg.t) =
  List.map
    (fun (_, i, r) ->
      warn ~func:f.name ~rule:"maybe-uninitialized"
        ~context:
          [ ("opid", string_of_int (Instr.opid i));
            ("register", Reg.to_string r) ]
        (Format.asprintf "register %a may be read uninitialized in [%a]"
           Reg.pp r Instr.pp i))
    (Defined.uninit_reads f cfg)

(* --- dead stores --------------------------------------------------------- *)

(* A def is dead when its register is live on no path immediately after
   the instruction.  Only pure value producers are reported: a call's
   unused result is not removable (the call still runs). *)
let is_pure_def i =
  match Instr.kind i with
  | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _ | Instr.Load _ ->
      true
  | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _ | Instr.Call _
  | Instr.Ret _ | Instr.Label_mark _ ->
      false

(* The nearest following redefinition of [d] — the definition that kills
   the dead store.  Rest of the same block first, then breadth-first
   over successors.  [None] when the register is simply never written
   again (dead because it is never read). *)
let find_killer (cfg : Cfg.t) ~block ~pos d =
  let def_in instrs =
    List.find_opt
      (fun i ->
        match Instr.def i with Some d' -> Reg.equal d d' | None -> false)
      instrs
  in
  let rec drop n = function
    | l when n = 0 -> l
    | [] -> []
    | _ :: rest -> drop (n - 1) rest
  in
  match def_in (drop (pos + 1) cfg.blocks.(block).instrs) with
  | Some i -> Some (Instr.opid i)
  | None ->
      let visited = Array.make (Array.length cfg.blocks) false in
      let q = Queue.create () in
      List.iter (fun s -> Queue.add s q) cfg.blocks.(block).succs;
      let rec go () =
        match Queue.take_opt q with
        | None -> None
        | Some b when visited.(b) -> go ()
        | Some b -> (
            visited.(b) <- true;
            match def_in cfg.blocks.(b).instrs with
            | Some i -> Some (Instr.opid i)
            | None ->
                List.iter (fun s -> Queue.add s q) cfg.blocks.(b).succs;
                go ())
      in
      go ()

let dead_stores (f : Func.t) (cfg : Cfg.t) =
  let live = Liveness.compute cfg in
  let findings = ref [] in
  Array.iter
    (fun (b : Cfg.block) ->
      List.iteri
        (fun pos i ->
          match Instr.def i with
          | Some d when is_pure_def i ->
              let after =
                Liveness.live_before live ~block:b.index ~pos:(pos + 1)
              in
              if not (Reg.Set.mem d after) then
                let witness =
                  match find_killer cfg ~block:b.index ~pos d with
                  | Some opid -> [ ("killed-by", string_of_int opid) ]
                  | None -> []
                in
                findings :=
                  warn ~func:f.name ~rule:"dead-store"
                    ~context:
                      ([ ("opid", string_of_int (Instr.opid i));
                         ("register", Reg.to_string d) ]
                      @ witness)
                    (Format.asprintf "value of [%a] is never used" Instr.pp i)
                  :: !findings
          | Some _ | None -> ())
        b.instrs)
    cfg.blocks;
  List.rev !findings

(* --- unreachable blocks -------------------------------------------------- *)

let unreachable_blocks (f : Func.t) (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let reached = Array.make n false in
  let rec visit b =
    if not reached.(b) then begin
      reached.(b) <- true;
      List.iter visit cfg.blocks.(b).succs
    end
  in
  visit cfg.entry;
  Array.to_list cfg.blocks
  |> List.filter_map (fun (b : Cfg.block) ->
         if reached.(b.index) || b.instrs = [] then None
         else
           Some
             (warn ~func:f.name ~rule:"unreachable-block"
                ~context:
                  [ ("block", string_of_int b.index);
                    ("instrs", string_of_int (List.length b.instrs)) ]
                (match b.label with
                | Some l ->
                    Format.asprintf
                      "block %d (%a) is unreachable from the entry" b.index
                      Asipfb_ir.Label.pp l
                | None ->
                    Printf.sprintf "block %d is unreachable from the entry"
                      b.index)))

let check_func (f : Func.t) =
  let cfg = Cfg.build f in
  uninit_reads f cfg @ dead_stores f cfg @ unreachable_blocks f cfg

let check (p : Asipfb_ir.Prog.t) = List.concat_map check_func p.funcs
