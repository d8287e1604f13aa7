module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Cfg = Asipfb_cfg.Cfg
module Liveness = Asipfb_cfg.Liveness
module Defined = Asipfb_cfg.Defined

let hoistable_past_branch i =
  match Instr.kind i with
  | Instr.Binop ((Types.Div | Types.Rem | Types.Fdiv), _, _, _) -> false
  | Instr.Binop ((Types.Shl | Types.Shr), _, _, amount) -> (
      match amount with
      | Instr.Imm_int n -> n >= 0 && n <= 62
      | Instr.Reg _ | Instr.Imm_float _ -> false)
  | Instr.Binop
      ( ( Types.Add | Types.Sub | Types.Mul | Types.And | Types.Or
        | Types.Xor | Types.Fadd | Types.Fsub | Types.Fmul ),
        _, _, _ ) ->
      true
  | Instr.Unop (Types.Sqrt, _, _) -> false
  | Instr.Unop
      ( ( Types.Neg | Types.Not | Types.Fneg | Types.Int_to_float
        | Types.Float_to_int | Types.Sin | Types.Cos | Types.Fabs ),
        _, _ ) ->
      true
  | Instr.Cmp _ | Instr.Mov _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _
  | Instr.Call _ | Instr.Ret _ | Instr.Label_mark _ ->
      false

let is_call i =
  match Instr.kind i with
  | Instr.Call _ -> true
  | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _ | Instr.Load _
  | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _ | Instr.Ret _
  | Instr.Label_mark _ ->
      false

(* [o] is movable to the very top of its block: no dependence on any earlier
   instruction of the block. *)
let at_dependence_top earlier o =
  let d = Instr.def o in
  let uses = Instr.uses o in
  List.for_all
    (fun e ->
      let e_def = Instr.def e in
      let no_flow =
        match e_def with
        | Some r -> not (List.exists (Reg.equal r) uses)
        | None -> true
      in
      let no_anti =
        match d with
        | Some r -> not (List.exists (Reg.equal r) (Instr.uses e))
        | None -> true
      in
      let no_output =
        match (d, e_def) with
        | Some a, Some b -> not (Reg.equal a b)
        | _ -> true
      in
      let no_mem_read =
        match Instr.reads_memory o with
        | Some region -> Instr.writes_memory e <> Some region && not (is_call e)
        | None -> true
      in
      let no_mem_write =
        (* A store may not move above any access to its region or a call. *)
        match Instr.writes_memory o with
        | Some region ->
            Instr.writes_memory e <> Some region
            && Instr.reads_memory e <> Some region
            && not (is_call e)
        | None -> true
      in
      no_flow && no_anti && no_output && no_mem_read && no_mem_write)
    earlier

let terminator_of (block : Cfg.block) =
  match List.rev block.instrs with
  | last :: _ when Instr.is_control last -> Some last
  | _ -> None

(* Liveness (live-in per block) and must-define facts for the current
   CFG: solved once per function, then patched after each move. *)
type facts = { live_in : Reg.Set.t array; defined : Defined.t }

(* Facts for [cfg] after [o] moved from the top of block [bidx] to just
   above the terminator of its sole predecessor.  The move's legality
   checks leave live-in unchanged at the predecessor, and so everywhere
   but [bidx]; must-define changes only for [o]'s destination
   (DESIGN §10.1). *)
let patch_facts facts (cfg : Cfg.t) ~bidx o =
  let live_in = Array.copy facts.live_in in
  let b = cfg.blocks.(bidx) in
  live_in.(bidx) <-
    Liveness.transfer b
      (List.fold_left
         (fun acc s -> Reg.Set.union acc live_in.(s))
         Reg.Set.empty b.succs);
  let defined =
    match Instr.def o with
    | Some d -> Defined.refresh facts.defined cfg d
    | None -> facts.defined
  in
  { live_in; defined }

(* Attempt one legal move anywhere in the function, reading [facts] for
   [cfg].  Returns the updated CFG and its facts on success. *)
let one_move (cfg : Cfg.t) facts : (Cfg.t * facts) option =
  let try_block bidx =
    let b = cfg.blocks.(bidx) in
    match b.preds with
    | [ p ] when p <> bidx && bidx <> cfg.entry ->
        let pred_term = terminator_of cfg.blocks.(p) in
        let speculative = List.length cfg.blocks.(p).succs > 1 in
        (* Find the first movable op.  Pure value-producing ops move
           freely (subject to the speculation whitelist past branches);
           stores move only along unconditional edges — executing a store
           speculatively would be observable. *)
        let rec split earlier = function
          | [] -> None
          | o :: rest ->
              let movable_kind =
                match Instr.kind o with
                | Instr.Store _ -> not speculative
                | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _
                | Instr.Load _ ->
                    true
                | Instr.Call _ | Instr.Jump _ | Instr.Cond_jump _
                | Instr.Ret _ | Instr.Label_mark _ ->
                    false
              in
              let candidate =
                movable_kind
                && at_dependence_top (List.rev earlier) o
                && ((not speculative) || hoistable_past_branch o)
              in
              if candidate then Some (List.rev earlier, o, rest)
              else split (o :: earlier) rest
        in
        (match split [] b.instrs with
        | Some (before, o, after) ->
            let uses_defined =
              List.for_all
                (fun u -> Reg.Set.mem u (Defined.defined_out facts.defined p))
                (Instr.uses o)
            in
            let term_ok =
              match (pred_term, Instr.def o) with
              | Some t, Some d ->
                  not (List.exists (Reg.equal d) (Instr.uses t))
              | _, _ -> true
            in
            let other_succs_ok =
              match Instr.def o with
              | None -> true
              | Some d ->
                  List.for_all
                    (fun s -> s = bidx || not (Reg.Set.mem d facts.live_in.(s)))
                    cfg.blocks.(p).succs
            in
            if uses_defined && term_ok && other_succs_ok then begin
              let updated =
                Cfg.map_blocks
                  (fun (blk : Cfg.block) ->
                    if blk.index = bidx then before @ after
                    else if blk.index = p then
                      match List.rev blk.instrs with
                      | last :: rev_rest when Instr.is_control last ->
                          List.rev rev_rest @ [ o; last ]
                      | _ -> blk.instrs @ [ o ]
                    else blk.instrs)
                  cfg
              in
              Some (updated, patch_facts facts updated ~bidx o)
            end
            else None
        | None -> None)
    | _ -> None
  in
  let rec first bidx =
    if bidx >= Array.length cfg.blocks then None
    else match try_block bidx with Some r -> Some r | None -> first (bidx + 1)
  in
  first 0

(* A guard on the total number of moves in one function.  Each move lifts
   an op into its block's immediate dominator, so on reachable code the
   motion settles long before the budget runs out. *)
let move_budget (f : Func.t) = max 16 (8 * Func.instr_count f)

let run_func (f : Func.t) : Func.t =
  let rec go cfg facts remaining =
    if remaining = 0 then cfg
    else
      match one_move cfg facts with
      | Some (cfg', facts') -> go cfg' facts' (remaining - 1)
      | None -> cfg
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  let facts =
    {
      live_in = Array.init (Array.length cfg.blocks) (Liveness.live_in live);
      defined = Defined.solve f cfg;
    }
  in
  Func.with_body f (Cfg.linearize (go cfg facts (move_budget f)))

let run (p : Prog.t) : Prog.t =
  let p' = Prog.map_funcs run_func p in
  Asipfb_ir.Validate.check_exn p';
  p'
