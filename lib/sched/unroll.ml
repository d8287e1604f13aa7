module Instr = Asipfb_ir.Instr
module Label = Asipfb_ir.Label
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Builder = Asipfb_ir.Builder
module Cfg = Asipfb_cfg.Cfg

(* The loop is unrollable when its path-shaped body closes with an explicit
   jump to the header's label (our lowering always emits one). *)
let closing_jump (cfg : Cfg.t) (k : Schedule.kernel) =
  match List.rev k.kernel_blocks with
  | last :: _ -> (
      match
        ( List.rev cfg.blocks.(last).instrs,
          cfg.blocks.(List.hd k.kernel_blocks).label )
      with
      | term :: _, Some header_label -> (
          match Instr.kind term with
          | Instr.Jump l when Label.equal l header_label ->
              Some (last, header_label)
          | _ -> None)
      | _, _ -> None)
  | [] -> None

(* The copied iteration is emitted as one contiguous run, so every
   consecutive path pair must connect by linear fallthrough (possibly under
   a conditional side exit that *branches* out of the loop) or by an
   explicit jump to the next path block's label.  A block whose side exit
   leaves by *fallthrough* (the shape [break] lowers to) cannot be copied
   contiguously — its loop would replicate without the exit — so such
   loops are skipped. *)
let path_copyable (cfg : Cfg.t) (k : Schedule.kernel) =
  let in_loop b = List.mem b k.kernel_blocks in
  let rec check = function
    | cur :: (next :: _ as rest) ->
        let ok =
          match List.rev cfg.blocks.(cur).instrs with
          | term :: _ -> (
              match Instr.kind term with
              | Instr.Cond_jump (_, l) ->
                  (* Branch must leave the loop; fallthrough must be the
                     next path block. *)
                  let target_in_loop =
                    List.exists
                      (fun idx ->
                        match cfg.blocks.(idx).label with
                        | Some bl -> Label.equal bl l && in_loop idx
                        | None -> false)
                      k.kernel_blocks
                  in
                  (not target_in_loop) && cur + 1 = next
              | Instr.Jump l -> (
                  match cfg.blocks.(next).label with
                  | Some nl -> Label.equal nl l
                  | None -> false)
              | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _
              | Instr.Load _ | Instr.Store _ | Instr.Call _ | Instr.Ret _
              | Instr.Label_mark _ ->
                  cur + 1 = next)
          | [] -> cur + 1 = next
        in
        ok && check rest
    | [ _ ] | [] -> true
  in
  check k.kernel_blocks

(* One fresh copy of the whole iteration path.  In-loop branch targets other
   than the header (labels introduced by ifs, breaks and continues inside
   the body) must point at the copy's own blocks, so those labels are
   duplicated and remapped; branches to the header or out of the loop keep
   their original targets. *)
let copy_iteration b (cfg : Cfg.t) (k : Schedule.kernel) header_label =
  let label_map =
    List.filter_map
      (fun idx ->
        match cfg.blocks.(idx).label with
        | Some l when not (Label.equal l header_label) ->
            Some (Label.id l, Builder.fresh_label b ~hint:(Label.hint l))
        | Some _ | None -> None)
      k.kernel_blocks
  in
  let remap l =
    match List.assoc_opt (Label.id l) label_map with
    | Some fresh -> fresh
    | None -> l
  in
  let copy_instr i =
    let kind =
      match Instr.kind i with
      | Instr.Jump l -> Instr.Jump (remap l)
      | Instr.Cond_jump (a, l) -> Instr.Cond_jump (a, remap l)
      | other -> other
    in
    Builder.instr b kind
  in
  List.concat_map
    (fun idx ->
      let blk = cfg.blocks.(idx) in
      let mark =
        match blk.label with
        | Some l when not (Label.equal l header_label) ->
            [ Builder.label_mark b (remap l) ]
        | Some _ | None -> []
      in
      mark @ List.map copy_instr blk.instrs)
    k.kernel_blocks

let unroll_func b (f : Func.t) : Func.t =
  let cfg = Cfg.build f in
  let kernels = Schedule.find_kernels cfg in
  (* last block index -> kernel, for kernels we can unroll *)
  let plans =
    List.filter_map
      (fun (k : Schedule.kernel) ->
        if not (path_copyable cfg k) then None
        else
          match closing_jump cfg k with
          | Some (last, header_label) -> Some (last, (k, header_label))
          | None -> None)
      kernels
  in
  if plans = [] then f
  else begin
    let body =
      Array.to_list cfg.blocks
      |> List.concat_map (fun (blk : Cfg.block) ->
             let mark =
               match blk.label with
               | Some l ->
                   [ Instr.make ~opid:(-Label.id l - 1) (Instr.Label_mark l) ]
               | None -> []
             in
             match List.assoc_opt blk.index plans with
             | None -> mark @ blk.instrs
             | Some (k, header_label) ->
                 (* Original last block minus its back-edge jump, then a
                    full fresh copy of the whole iteration path (its final
                    copy re-emits the back-edge jump). *)
                 let minus_terminator =
                   match List.rev blk.instrs with
                   | _term :: rev_rest -> List.rev rev_rest
                   | [] -> []
                 in
                 mark @ minus_terminator
                 @ copy_iteration b cfg k header_label)
    in
    Func.with_body f body
  end

let loop_once (p : Prog.t) : Prog.t =
  let b = Builder.create () in
  List.iter (Builder.seed_from_func b) p.funcs;
  let p' = Prog.map_funcs (unroll_func b) p in
  Asipfb_ir.Validate.check_exn p';
  p'
