module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr
module Reg = Asipfb_ir.Reg
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Cfg = Asipfb_cfg.Cfg
module Liveness = Asipfb_cfg.Liveness

(* Fold only operations that cannot trap at runtime. *)
let fold_binop op a b =
  match op with
  | Types.Div | Types.Rem -> None
  | Types.Shl | Types.Shr ->
      if b >= 0 && b <= 62 then
        Some (Asipfb_sim.Interp.eval_binop op (Asipfb_exec.Value.Vint a)
                (Asipfb_exec.Value.Vint b))
      else None
  | Types.Add | Types.Sub | Types.Mul | Types.And | Types.Or | Types.Xor ->
      Some (Asipfb_sim.Interp.eval_binop op (Asipfb_exec.Value.Vint a)
              (Asipfb_exec.Value.Vint b))
  | Types.Fadd | Types.Fsub | Types.Fmul | Types.Fdiv -> None

let fold_fbinop op a b =
  match op with
  | Types.Fadd -> Some (a +. b)
  | Types.Fsub -> Some (a -. b)
  | Types.Fmul -> Some (a *. b)
  | Types.Fdiv -> if b = 0.0 then None else Some (a /. b)
  | Types.Add | Types.Sub | Types.Mul | Types.Div | Types.Rem | Types.And
  | Types.Or | Types.Xor | Types.Shl | Types.Shr ->
      None

let constant_fold (f : Func.t) : Func.t =
  let fold i =
    match Instr.kind i with
    | Instr.Binop (op, d, Instr.Imm_int a, Instr.Imm_int b) -> (
        match fold_binop op a b with
        | Some (Asipfb_exec.Value.Vint v) ->
            Instr.with_kind i (Instr.Mov (d, Instr.Imm_int v))
        | Some (Asipfb_exec.Value.Vfloat _) | None -> i)
    | Instr.Binop (op, d, Instr.Imm_float a, Instr.Imm_float b) -> (
        match fold_fbinop op a b with
        | Some v -> Instr.with_kind i (Instr.Mov (d, Instr.Imm_float v))
        | None -> i)
    | Instr.Unop (op, d, operand) -> (
        match (op, operand) with
        | Types.Neg, Instr.Imm_int n ->
            Instr.with_kind i (Instr.Mov (d, Instr.Imm_int (-n)))
        | Types.Not, Instr.Imm_int n ->
            Instr.with_kind i (Instr.Mov (d, Instr.Imm_int (lnot n)))
        | Types.Fneg, Instr.Imm_float x ->
            Instr.with_kind i (Instr.Mov (d, Instr.Imm_float (-.x)))
        | Types.Int_to_float, Instr.Imm_int n ->
            Instr.with_kind i (Instr.Mov (d, Instr.Imm_float (float_of_int n)))
        | _ -> i)
    | Instr.Cmp (Types.Int, rel, d, Instr.Imm_int a, Instr.Imm_int b) ->
        let v = if Types.eval_relop_int rel a b then 1 else 0 in
        Instr.with_kind i (Instr.Mov (d, Instr.Imm_int v))
    | Instr.Cmp (Types.Float, rel, d, Instr.Imm_float a, Instr.Imm_float b) ->
        let v = if Types.eval_relop_float rel a b then 1 else 0 in
        Instr.with_kind i (Instr.Mov (d, Instr.Imm_int v))
    | _ -> i
  in
  Func.with_body f (List.map fold f.body)

let propagate_copies (f : Func.t) : Func.t =
  let cfg = Cfg.build f in
  let rewrite_block (b : Cfg.block) =
    (* copies: destination id -> source operand, valid until either side is
       redefined. *)
    let copies : (int, Instr.operand) Hashtbl.t = Hashtbl.create 8 in
    let invalidate r =
      Hashtbl.remove copies (Reg.id r);
      Hashtbl.iter
        (fun k v ->
          match v with
          | Instr.Reg src when Reg.equal src r ->
              Hashtbl.remove copies k
          | Instr.Reg _ | Instr.Imm_int _ | Instr.Imm_float _ -> ())
        (Hashtbl.copy copies)
    in
    List.map
      (fun i ->
        let subst = function
          | Instr.Reg r as operand -> (
              match Hashtbl.find_opt copies (Reg.id r) with
              | Some replacement -> replacement
              | None -> operand)
          | operand -> operand
        in
        let i = Instr.map_operands subst i in
        (match Instr.def i with Some d -> invalidate d | None -> ());
        (match Instr.kind i with
        | Instr.Mov (d, src) ->
            (* Record after invalidation; a self-move records nothing. *)
            (match src with
            | Instr.Reg s when Reg.equal s d -> ()
            | _ -> Hashtbl.replace copies (Reg.id d) src)
        | _ -> ());
        i)
      b.instrs
  in
  Func.with_body f (Cfg.linearize (Cfg.map_blocks rewrite_block cfg))

let eliminate_dead (f : Func.t) : Func.t =
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  let sweep (b : Cfg.block) =
    (* Walk backward tracking liveness; drop pure ops with dead results. *)
    let rec go instrs live_after =
      match instrs with
      | [] -> []
      | i :: before_rev ->
          let keep =
            Instr.has_side_effect i || Instr.is_label i
            ||
            match Instr.def i with
            | Some d -> Reg.Set.mem d live_after
            | None -> true
          in
          if keep then
            let live_here =
              let without_def =
                match Instr.def i with
                | Some d -> Reg.Set.remove d live_after
                | None -> live_after
              in
              List.fold_left
                (fun s r -> Reg.Set.add r s)
                without_def (Instr.uses i)
            in
            i :: go before_rev live_here
          else go before_rev live_after
    in
    List.rev (go (List.rev b.instrs) (Liveness.live_out live b.index))
  in
  Func.with_body f (Cfg.linearize (Cfg.map_blocks sweep cfg))

let run_func f =
  let pass f = eliminate_dead (propagate_copies (constant_fold f)) in
  let rec go f n =
    if n = 0 then f
    else
      let f' = pass f in
      if Func.instr_count f' = Func.instr_count f && f'.Func.body = f.Func.body
      then f'
      else go f' (n - 1)
  in
  go f 4

let run (p : Prog.t) : Prog.t =
  let p' = Prog.map_funcs run_func p in
  Asipfb_ir.Validate.check_exn p';
  p'
