module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func

type t = {
  universe : Reg.Set.t;
  params : Reg.Set.t;
  input : Reg.Set.t array;
  output : Reg.Set.t array;
}

(* Forward/must definite assignment over any meet-semilattice of facts:
   the merge is [meet] seeded from [top], so unreachable blocks stay
   vacuous, and the entry is also reached from outside, where only the
   parameters are assigned — even when a back edge targets it.  Solved
   on register sets by [solve] and on one register's bit by [refresh]. *)
let solve_over (type a) (cfg : Cfg.t) ~(top : a) ~meet ~(params : a) ~gen
    ~equal =
  let module Solver = Dataflow.Make (struct
    type fact = a

    let direction = `Forward
    let init = top

    let merge (b : Cfg.block) facts =
      let inflow =
        match facts with
        | [] -> top
        | first :: rest -> List.fold_left meet first rest
      in
      if b.index = cfg.entry then meet params inflow else inflow

    let transfer = gen
    let equal = equal
  end) in
  let { Solver.input; output } = Solver.solve cfg in
  (input, output)

let solve (f : Func.t) (cfg : Cfg.t) : t =
  let universe =
    Reg.Set.union (Func.defined_regs f)
      (Reg.Set.union (Func.used_regs f) (Reg.Set.of_list f.params))
  in
  let params = Reg.Set.of_list f.params in
  let gen (b : Cfg.block) defined =
    List.fold_left
      (fun acc i ->
        match Instr.def i with Some d -> Reg.Set.add d acc | None -> acc)
      defined b.instrs
  in
  let input, output =
    solve_over cfg ~top:universe ~meet:Reg.Set.inter ~params ~gen
      ~equal:Reg.Set.equal
  in
  { universe; params; input; output }

let defined_in t b = t.input.(b)
let defined_out t b = t.output.(b)

(* Merge, entry pinning and transfer all act on each register alone, so
   the set fixpoint is the product of one boolean fixpoint per register:
   re-solve [r]'s and keep every other register's bit. *)
let refresh t (cfg : Cfg.t) r =
  let defines (b : Cfg.block) =
    List.exists
      (fun i -> Option.equal Reg.equal (Instr.def i) (Some r))
      b.instrs
  in
  let defines = Array.map defines cfg.blocks in
  let input, output =
    solve_over cfg ~top:(Reg.Set.mem r t.universe) ~meet:( && )
      ~params:(Reg.Set.mem r t.params)
      ~gen:(fun b inn -> inn || defines.(b.index))
      ~equal:Bool.equal
  in
  let set bits =
    Array.mapi (fun b s ->
        if bits.(b) then Reg.Set.add r s else Reg.Set.remove r s)
  in
  { t with input = set input t.input; output = set output t.output }

(* Walk each block forward from its entry fact, adding each definition
   after the instruction's own reads. *)
let uninit_reads (f : Func.t) (cfg : Cfg.t) =
  let t = solve f cfg in
  let reads = ref [] in
  Array.iter
    (fun (b : Cfg.block) ->
      let defined = ref (defined_in t b.index) in
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              if not (Reg.Set.mem r !defined) then
                reads := (b.index, i, r) :: !reads)
            (Asipfb_util.Listx.dedup Reg.equal (Instr.uses i));
          Option.iter
            (fun d -> defined := Reg.Set.add d !defined)
            (Instr.def i))
        b.instrs)
    cfg.blocks;
  List.rev !reads
