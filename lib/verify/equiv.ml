(* Translation validation by block-level symbolic simulation.

   Both sides of a transformation (original function, scheduled function)
   are executed symbolically from shared *cut variables* — one unknown
   per (cut block, register) and one unknown memory per cut block — and
   the checker demands that everything observable agrees as a symbolic
   expression: store and call events, terminator conditions and return
   values, and the registers live into every cut point.  The transforms
   under validation (percolation motion, block-local register renaming)
   preserve the CFG shape block-for-block and only move code along
   single-entry single-exit chain edges, which is exactly the slack the
   obligations below leave open; anything else is reported as a
   refinement failure and sent to the concrete counterexample search. *)

module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Ops = Asipfb_exec.Ops
module Cfg = Asipfb_cfg.Cfg
module Liveness = Asipfb_cfg.Liveness
module Defined = Asipfb_cfg.Defined
module Diag = Asipfb_diag.Diag
module Prng = Asipfb_util.Prng

(* --- symbolic expressions ------------------------------------------------ *)

(* All constructors below are produced exclusively through the smart
   constructors [sbin]/[sun]/[scmp]/[sload], so a stored [sym] is always
   in normal form and obligation discharge is structural equality. *)
type sym =
  | Sint of int
  | Sfloat of float
  | Scut of int * int  (* value of register (snd) at entry of cut block (fst) *)
  | Sbin of Types.binop * sym * sym
  | Sun of Types.unop * sym
  | Scmp of Types.ty * Types.relop * sym * sym
  | Sload of string * sym * smem  (* region, index, memory it reads *)
  | Scall of int * int  (* return value of call #(snd) in block (fst) *)

and smem =
  | Mcut of int  (* memory at entry of cut block *)
  | Mstore of smem * string * sym * sym  (* base, region, index, value *)
  | Mhavoc of smem * int * int  (* base, clobbered by call #(snd) in block (fst) *)

let rec pp_sym ppf = function
  | Sint k -> Format.pp_print_int ppf k
  | Sfloat f -> Format.fprintf ppf "%g" f
  | Scut (b, r) -> Format.fprintf ppf "r%d@b%d" r b
  | Sbin (op, a, b) ->
      Format.fprintf ppf "(%s %a %a)" (Types.string_of_binop op) pp_sym a
        pp_sym b
  | Sun (op, a) ->
      Format.fprintf ppf "(%s %a)" (Types.string_of_unop op) pp_sym a
  | Scmp (_, rel, a, b) ->
      Format.fprintf ppf "(%s %a %a)" (Types.string_of_relop rel) pp_sym a
        pp_sym b
  | Sload (region, i, m) ->
      Format.fprintf ppf "%s[%a|%a]" region pp_sym i pp_smem m
  | Scall (b, k) -> Format.fprintf ppf "call%d@b%d" k b

and pp_smem ppf = function
  | Mcut b -> Format.fprintf ppf "mem@b%d" b
  | Mstore (base, region, i, v) ->
      Format.fprintf ppf "%a;%s[%a]:=%a" pp_smem base region pp_sym i pp_sym v
  | Mhavoc (base, b, k) ->
      Format.fprintf ppf "%a;havoc(call%d@b%d)" pp_smem base k b

let sym_to_string s = Format.asprintf "%a" pp_sym s

(* --- normalizing smart constructors -------------------------------------- *)

let is_float_binop op = Types.binop_operand_ty op = Types.Float

let commutative = function
  | Types.Add | Types.Mul | Types.And | Types.Or | Types.Xor -> true
  | _ -> false
(* Int-only: float addition/multiplication are commutative too, but
   reordering float operands must never happen anywhere in this checker —
   normal forms have to mirror run-time evaluation exactly. *)

let sbin op a b =
  let fold () =
    (* Delegate to the execution core so compile-time folding can never
       disagree with run-time arithmetic; trapping combinations (division
       by zero, out-of-range shifts) stay unfolded and are left to the
       run-time trap. *)
    match (a, b) with
    | Sint x, Sint y when not (is_float_binop op) -> (
        match Ops.eval_binop op (Value.Vint x) (Value.Vint y) with
        | Value.Vint v -> Some (Sint v)
        | Value.Vfloat v -> Some (Sfloat v)
        | exception Ops.Trap _ -> None
        | exception Invalid_argument _ -> None)
    | Sfloat x, Sfloat y when is_float_binop op -> (
        match Ops.eval_binop op (Value.Vfloat x) (Value.Vfloat y) with
        | Value.Vint v -> Some (Sint v)
        | Value.Vfloat v -> Some (Sfloat v)
        | exception Ops.Trap _ -> None
        | exception Invalid_argument _ -> None)
    | _ -> None
  in
  match fold () with
  | Some s -> s
  | None -> (
      (* Integer identities only: float identities like [x +. 0.0] are
         not sound under IEEE (signed zeros). *)
      match (op, a, b) with
      | (Types.Add | Types.Sub | Types.Xor | Types.Or | Types.Shl | Types.Shr), x, Sint 0 -> x
      | (Types.Add | Types.Or | Types.Xor), Sint 0, x -> x
      | (Types.Mul | Types.Div), x, Sint 1 -> x
      | Types.Mul, Sint 1, x -> x
      | Types.Mul, _, Sint 0 | Types.Mul, Sint 0, _ -> Sint 0
      | Types.And, _, Sint 0 | Types.And, Sint 0, _ -> Sint 0
      | _ ->
          if commutative op && Stdlib.compare b a < 0 then Sbin (op, b, a)
          else Sbin (op, a, b))

let sun op a =
  match a with
  | Sint _ | Sfloat _ -> (
      let v = match a with Sint x -> Value.Vint x | _ -> Value.Vfloat (match a with Sfloat f -> f | _ -> 0.) in
      match Ops.eval_unop op v with
      | Value.Vint r -> Sint r
      | Value.Vfloat r -> Sfloat r
      | exception Ops.Trap _ -> Sun (op, a)
      | exception Invalid_argument _ -> Sun (op, a))
  | _ -> Sun (op, a)

let scmp ty rel a b =
  match (ty, a, b) with
  | Types.Int, Sint x, Sint y ->
      Sint (if Types.eval_relop_int rel x y then 1 else 0)
  | Types.Float, Sfloat x, Sfloat y ->
      Sint (if Types.eval_relop_float rel x y then 1 else 0)
  | _ -> Scmp (ty, rel, a, b)

(* [canon region index mem] drops stores that provably cannot affect a
   load of [region] at [index]: stores to other regions (regions are
   disjoint namespaces) and same-region stores at a distinct constant
   index when [index] itself is constant.  Havoc barriers (calls) always
   stay — the callee may write the region. *)
let rec canon region index mem =
  match mem with
  | Mcut _ -> mem
  | Mhavoc (base, b, k) -> Mhavoc (canon region index base, b, k)
  | Mstore (base, r, i, v) ->
      if r <> region then canon region index base
      else
        let skip =
          match (i, index) with
          | Sint a, Sint b -> a <> b
          | _ -> false
        in
        if skip then canon region index base
        else Mstore (canon region index base, r, i, v)

let rec sload region index mem =
  match mem with
  | Mstore (base, r, i, v) ->
      if r <> region then sload region index base
      else if i = index then v
      else (
        match (i, index) with
        | Sint a, Sint b when a <> b -> sload region index base
        | _ -> Sload (region, index, canon region index mem))
  | Mcut _ | Mhavoc _ -> Sload (region, index, canon region index mem)

(* --- symbolic execution of one function ---------------------------------- *)

module Imap = Map.Make (Int)

type sstate = { sbase : int; sregs : sym Imap.t; smemory : smem }

let cut_state b = { sbase = b; sregs = Imap.empty; smemory = Mcut b }

let lookup st rid =
  match Imap.find_opt rid st.sregs with
  | Some s -> s
  | None -> Scut (st.sbase, rid)

let ev st = function
  | Instr.Imm_int k -> Sint k
  | Instr.Imm_float f -> Sfloat f
  | Instr.Reg r -> lookup st r.Reg.id

let assign st (d : Reg.t) s = { st with sregs = Imap.add d.Reg.id s st.sregs }

(* Observable events of one block, in order.  Call events are tagged with
   the canonical (original-side) block id so the two sides share the
   Scall/Mhavoc unknowns. *)
type bevent =
  | Ev_store of string * sym * sym  (* region, index, value *)
  | Ev_call of int * int * string * sym list
      (* canonical block, call # in block, callee, args *)

type bterm =
  | Tfall  (* no terminator: fall through *)
  | Tjump
  | Tcond of sym
  | Tret of sym option

type bsummary = {
  bs_exit : sstate;
  bs_events : bevent list;
  bs_term : bterm;
  bs_calls : int;
}

let exec_block bidx (st0 : sstate) instrs : bsummary =
  let st = ref st0 in
  let events = ref [] in
  let term = ref Tfall in
  let calls = ref 0 in
  List.iter
    (fun ins ->
      match Instr.kind ins with
      | Instr.Label_mark _ -> ()
      | Instr.Binop (op, d, a, b) ->
          st := assign !st d (sbin op (ev !st a) (ev !st b))
      | Instr.Unop (op, d, a) -> st := assign !st d (sun op (ev !st a))
      | Instr.Cmp (ty, rel, d, a, b) ->
          st := assign !st d (scmp ty rel (ev !st a) (ev !st b))
      | Instr.Mov (d, a) -> st := assign !st d (ev !st a)
      | Instr.Load (_, d, region, idx) ->
          st := assign !st d (sload region (ev !st idx) !st.smemory)
      | Instr.Store (_, region, idx, v) ->
          let i = ev !st idx and value = ev !st v in
          events := Ev_store (region, i, value) :: !events;
          st := { !st with smemory = Mstore (!st.smemory, region, i, value) }
      | Instr.Call (dst, callee, args) ->
          let k = !calls in
          incr calls;
          events := Ev_call (bidx, k, callee, List.map (ev !st) args) :: !events;
          st := { !st with smemory = Mhavoc (!st.smemory, bidx, k) };
          Option.iter (fun d -> st := assign !st d (Scall (bidx, k))) dst
      | Instr.Jump _ -> term := Tjump
      | Instr.Cond_jump (c, _) -> term := Tcond (ev !st c)
      | Instr.Ret v -> term := Tret (Option.map (ev !st) v))
    instrs;
  { bs_exit = !st; bs_events = List.rev !events; bs_term = !term;
    bs_calls = !calls }

(* Cut points: the entry block plus every block that is not reached by
   exactly one edge.  A block with a unique predecessor inherits that
   predecessor's symbolic state; everything else starts fresh from cut
   variables. *)
let cut_points (cfg : Cfg.t) =
  Array.map
    (fun (b : Cfg.block) -> b.index = cfg.entry || List.length b.preds <> 1)
    cfg.blocks

(* Block alignment between the original and transformed CFGs.

   Percolation can empty an unlabeled fall-through block entirely (its
   contents hoist into the predecessor), and an empty unlabeled block
   simply disappears when the CFG is linearized — so the two graphs are
   not block-for-block identical.  But labels survive every transform,
   block order is preserved, and only unlabeled terminator-free blocks
   can vanish, each of which is necessarily followed by a labeled block
   (otherwise it would not have been a separate block at all).  That
   makes a single ordered walk sufficient: [align co ct] maps each
   original block to its transformed image, or to [None] if it
   vanished. *)
let align (co : Cfg.t) (ct : Cfg.t) : (int option array, string) result =
  let no = Array.length co.blocks and nt = Array.length ct.blocks in
  let m = Array.make no None in
  let label_id (b : Cfg.block) = Option.map (fun l -> Asipfb_ir.Label.id l) b.label in
  let can_vanish (b : Cfg.block) =
    b.label = None
    && b.index <> co.entry
    && (not (List.exists Instr.is_control b.instrs))
    && List.length b.succs = 1
    && List.length b.preds = 1
  in
  let rec go i j =
    if i = no then
      if j = nt then Ok m
      else Error (Format.sprintf "transformed has %d extra block(s)" (nt - j))
    else
      let bo = co.blocks.(i) in
      let vanish () =
        if can_vanish bo then go (i + 1) j
        else
          Error
            (Format.sprintf
               "block %d disappeared but is not an empty fall-through \
                candidate" i)
      in
      if j >= nt then vanish ()
      else
        let bt = ct.blocks.(j) in
        match (label_id bo, label_id bt) with
        | Some a, Some b when a = b ->
            m.(i) <- Some j;
            go (i + 1) (j + 1)
        | None, None ->
            m.(i) <- Some j;
            go (i + 1) (j + 1)
        | None, Some _ -> vanish ()
        | Some _, (Some _ | None) ->
            Error (Format.sprintf "labels disagree at block %d/%d" i j)
  in
  go 0 0

(* Reverse postorder over reachable blocks, then any unreachable ones in
   index order (they execute never, but summarizing them keeps the
   obligation lists aligned between the two sides). *)
let rpo (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let seen = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs cfg.blocks.(b).succs;
      order := b :: !order
    end
  in
  dfs cfg.entry;
  let rest = ref [] in
  for b = n - 1 downto 0 do
    if not seen.(b) then rest := b :: !rest
  done;
  !order @ !rest

(* [summarize ~name cfg] symbolically executes every block; [name] maps
   this CFG's block indices to the canonical (original-side) ids the two
   sides share their Scut/Mcut/Scall unknowns through — the identity for
   the original, the alignment's inverse for the transformed side. *)
let summarize ~name (cfg : Cfg.t) : bsummary array =
  let cuts = cut_points cfg in
  let n = Array.length cfg.blocks in
  let out : bsummary option array = Array.make n None in
  List.iter
    (fun b ->
      let block = cfg.blocks.(b) in
      let entry_state =
        if cuts.(b) then cut_state (name b)
        else
          match block.preds with
          | [ p ] when p <> b -> (
              match out.(p) with
              | Some s -> s.bs_exit
              | None -> cut_state (name b) (* pred not yet summarized: be safe *))
          | _ -> cut_state (name b)
      in
      out.(b) <- Some (exec_block (name b) entry_state block.instrs))
    (rpo cfg);
  Array.map (function Some s -> s | None -> assert false) out

(* --- obligations ---------------------------------------------------------- *)

(* Chain edge p→b: the only edge into b and the only edge out of p.  The
   scheduler moves code (including stores) across exactly these edges, so
   observable-event obligations are stated per maximal chain, not per
   block. *)
let chains (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let merge_pred = Array.make n None in
  Array.iter
    (fun (b : Cfg.block) ->
      match b.preds with
      | [ p ] when b.index <> cfg.entry
                   && cfg.blocks.(p).succs = [ b.index ]
                   && p <> b.index ->
          merge_pred.(b.index) <- Some p
      | _ -> ())
    cfg.blocks;
  let is_head b = merge_pred.(b) = None in
  let merge_succ = Array.make n None in
  Array.iteri
    (fun b pred -> match pred with Some p -> merge_succ.(p) <- Some b | None -> ())
    merge_pred;
  let rec follow acc b =
    match merge_succ.(b) with
    | Some next -> follow (next :: acc) next
    | None -> List.rev acc
  in
  List.filter_map
    (fun b -> if is_head b then Some (follow [ b ] b) else None)
    (List.init n Fun.id)

let term_to_string = function
  | Tfall -> "fallthrough"
  | Tjump -> "jump"
  | Tcond s -> Format.asprintf "branch on %a" pp_sym s
  | Tret None -> "return"
  | Tret (Some s) -> Format.asprintf "return %a" pp_sym s

type failure = {
  fl_func : string;
  fl_block : int option;
  fl_check : string;
  fl_detail : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "%s%s: [%s] %s" f.fl_func
    (match f.fl_block with Some b -> Format.sprintf ".b%d" b | None -> "")
    f.fl_check f.fl_detail

let failure_to_string f = Format.asprintf "%a" pp_failure f

(* Per-region projection of a chain's events.  Stores to distinct regions
   commute (regions are disjoint), but nothing commutes with a call — the
   callee can read and write any region — so each projection keeps the
   region's stores interleaved with every call. *)
let project_region region evs =
  List.filter_map
    (function
      | Ev_store (r, i, v) when r = region -> Some (`S (i, v))
      | Ev_store _ -> None
      | Ev_call (b, k, callee, _) -> Some (`C (b, k, callee)))
    evs

let event_to_string = function
  | Ev_store (r, i, v) ->
      Format.asprintf "%s[%a] := %a" r pp_sym i pp_sym v
  | Ev_call (b, k, callee, args) ->
      Format.asprintf "b%d: call#%d %s(%a)" b k callee
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_sym)
        args

let check_func ~(original : Func.t) ~(transformed : Func.t) : failure list =
  let fname = original.Func.name in
  let fail ?block check detail =
    { fl_func = fname; fl_block = block; fl_check = check; fl_detail = detail }
  in
  let co = Cfg.build original and ct = Cfg.build transformed in
  match align co ct with
  | Error detail -> [ fail "cfg-shape" detail ]
  | Ok m -> (
      let no = Array.length co.blocks in
      (* Orig successor through any vanished blocks to its transformed
         image; vanished blocks have exactly one successor, and the walk
         is bounded by the block count (vanish chains are acyclic). *)
      let resolve s0 =
        let rec go fuel s =
          if fuel = 0 then None
          else
            match m.(s) with
            | Some t -> Some t
            | None -> (
                match co.blocks.(s).succs with
                | [ s' ] -> go (fuel - 1) s'
                | _ -> None)
        in
        go no s0
      in
      (* Orig predecessor side: nearest surviving ancestor's image. *)
      let anc p0 =
        let rec go fuel p =
          if fuel = 0 then None
          else
            match m.(p) with
            | Some t -> Some t
            | None -> (
                match co.blocks.(p).preds with
                | [ p' ] -> go (fuel - 1) p'
                | _ -> None)
        in
        go no p0
      in
      (* Edge correspondence: each surviving block's successor list must
         map, through vanished-block contraction, onto its image's. *)
      let edge_mismatch =
        List.find_map
          (fun (b : Cfg.block) ->
            match m.(b.index) with
            | None -> None
            | Some j ->
                let mapped = List.map resolve b.succs in
                if
                  mapped
                  <> List.map (fun t -> Some t) ct.blocks.(j).succs
                then
                  Some
                    (fail ~block:b.index "cfg-shape"
                       (Format.sprintf
                          "successors of block %d do not correspond to \
                           transformed block %d's" b.index j))
                else None)
          (Array.to_list co.blocks)
      in
      match edge_mismatch with
      | Some f -> [ f ]
      | None -> (
          let inv = Array.make (Array.length ct.blocks) 0 in
          Array.iteri
            (fun i t -> match t with Some j -> inv.(j) <- i | None -> ())
            m;
          (* The two sides must agree on which blocks are cut points —
             edge contraction preserves predecessor counts, so a mismatch
             means the transform did something out of scope. *)
          let cuts = cut_points co and cuts_t = cut_points ct in
          let cut_mismatch =
            List.find_map
              (fun (b : Cfg.block) ->
                match m.(b.index) with
                | Some j when cuts.(b.index) <> cuts_t.(j) ->
                    Some
                      (fail ~block:b.index "cfg-shape"
                         (Format.sprintf
                            "block %d is a cut point on one side only"
                            b.index))
                | _ -> None)
              (Array.to_list co.blocks)
          in
          match cut_mismatch with
          | Some f -> [ f ]
          | None ->
              let so = summarize ~name:Fun.id co in
              let st = summarize ~name:(fun j -> inv.(j)) ct in
              let failures = ref [] in
              let add f = failures := f :: !failures in
              let summary_t i = Option.map (fun j -> st.(j)) m.(i) in
              (* 1. terminators: same kind, same symbolic condition /
                 return value (branch targets are covered by the edge
                 correspondence above).  A vanished block must have been
                 a pure fall-through — [align] already guaranteed it. *)
              Array.iteri
                (fun b (bo : bsummary) ->
                  match summary_t b with
                  | None -> ()
                  | Some bt ->
                      if bo.bs_term <> bt.bs_term then
                        add
                          (fail ~block:b "terminator"
                             (Format.sprintf "%s vs %s"
                                (term_to_string bo.bs_term)
                                (term_to_string bt.bs_term))))
                so;
              (* 2. calls: per block, same sequence of callees and
                 argument values.  Calls never move, and this pins down
                 the (block, k) identities the Scall/Mhavoc unknowns are
                 shared through.  A vanished block must be call-free. *)
              Array.iteri
                (fun b (bo : bsummary) ->
                  let calls s =
                    List.filter_map
                      (function
                        | Ev_call (_, k, f, args) -> Some (k, f, args)
                        | _ -> None)
                      s.bs_events
                  in
                  let oc = calls bo in
                  let tc =
                    match summary_t b with Some s -> calls s | None -> []
                  in
                  if oc <> tc then
                    add
                      (fail ~block:b "calls"
                         (Format.sprintf
                            "call sequences differ (%d vs %d calls)"
                            (List.length oc) (List.length tc))))
                so;
              (* 3. observable events per chain, per region: the
                 scheduler may move a store along single-entry/single-exit
                 chain edges, so the obligation compares each region's
                 store/call interleaving over the whole chain (a vanished
                 block contributes its original events to the chain and
                 nothing to the transformed side — any event it carried
                 must reappear elsewhere in the same chain). *)
              let regions =
                List.sort_uniq compare
                  (List.concat_map
                     (fun (s : bsummary) ->
                       List.filter_map
                         (function Ev_store (r, _, _) -> Some r | _ -> None)
                         s.bs_events)
                     (Array.to_list so @ Array.to_list st))
              in
              List.iter
                (fun chain ->
                  let eo =
                    List.concat_map (fun b -> so.(b).bs_events) chain
                  in
                  let et =
                    List.concat_map
                      (fun b ->
                        match summary_t b with
                        | Some s -> s.bs_events
                        | None -> [])
                      chain
                  in
                  List.iter
                    (fun region ->
                      if project_region region eo <> project_region region et
                      then
                        add
                          (fail ~block:(List.hd chain) "events"
                             (Format.sprintf
                                "region %s: observable stores differ along \
                                 chain [%s]"
                                region
                                (String.concat ";"
                                   (List.map string_of_int chain)))))
                    regions)
                (chains co);
              (* 4. cut edges: every register live into a cut block must
                 hold the same symbolic value at each predecessor's exit
                 on both sides.  This is what justifies sharing the Scut
                 unknowns.  The transformed-side exit for an original
                 predecessor is its nearest surviving ancestor's image —
                 a vanished predecessor's effects were hoisted there. *)
              let lo = Liveness.compute co and lt = Liveness.compute ct in
              Array.iter
                (fun (c : Cfg.block) ->
                  if cuts.(c.index) then
                    let live =
                      Reg.Set.union
                        (Liveness.live_in lo c.index)
                        (match m.(c.index) with
                        | Some j -> Liveness.live_in lt j
                        | None -> Reg.Set.empty)
                    in
                    List.iter
                      (fun p ->
                        match anc p with
                        | None ->
                            add
                              (fail ~block:p "cut-edge"
                                 (Format.sprintf
                                    "no transformed counterpart for \
                                     predecessor %d of cut block %d" p
                                    c.index))
                        | Some tp ->
                            Reg.Set.iter
                              (fun r ->
                                let vo = lookup so.(p).bs_exit r.Reg.id
                                and vt = lookup st.(tp).bs_exit r.Reg.id in
                                if vo <> vt then
                                  add
                                    (fail ~block:p "cut-edge"
                                       (Format.asprintf
                                          "%s live into b%d: %a vs %a at \
                                           exit of b%d"
                                          (Reg.to_string r) c.index pp_sym vo
                                          pp_sym vt p)))
                              live)
                      c.preds)
                co.blocks;
              (* 5. definedness: the transformed side may read a
                 maybe-uninitialized register only at an opid where the
                 original does.  Such a read traps on the core, and when
                 its result is dead no cut-edge obligation above ever
                 looks at it. *)
              let original_reads =
                List.map
                  (fun (_, i, _) -> Instr.opid i)
                  (Defined.uninit_reads original co)
              in
              List.iter
                (fun (j, i, r) ->
                  if not (List.mem (Instr.opid i) original_reads) then
                    add
                      (fail ~block:inv.(j) "definedness"
                         (Format.asprintf
                            "%s may be read uninitialized at opid %d [%a]"
                            (Reg.to_string r) (Instr.opid i) Instr.pp i)))
                (Defined.uninit_reads transformed ct);
              List.rev !failures))

(* --- concrete counterexample search -------------------------------------- *)

type counterexample = {
  cx_attempt : int;
  cx_inputs : (string * Value.t list) list;
  cx_divergence : string;
  cx_original_trace : string list;
  cx_transformed_trace : string list;
  cx_ref_confirmed : bool;
}

type verdict =
  | Refines
  | Fails of { failures : failure list; counterexample : counterexample option }

let sample_inputs (p : Prog.t) ~attempt =
  if attempt = 0 then
    List.map
      (fun (r : Prog.region) ->
        (r.region_name,
         Array.make r.size
           (match r.elt_ty with
            | Types.Int -> Value.Vint 0
            | Types.Float -> Value.Vfloat 0.)))
      p.regions
  else
    let rng = Prng.create ~seed:(0x5eed + attempt) in
    List.map
      (fun (r : Prog.region) ->
        let data =
          match r.elt_ty with
          | Types.Int ->
              Array.map (fun v -> Value.Vint v)
                (Prng.int_array rng ~len:r.size ~bound:64)
          | Types.Float ->
              Array.map (fun v -> Value.Vfloat v)
                (Prng.float_array rng ~len:r.size ~lo:(-8.0) ~hi:8.0)
        in
        (r.region_name, data))
      p.regions

let dump_memory (m : Memory.t) =
  List.map (fun r -> (r, Memory.dump m r)) (Memory.regions m)

let memories_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, da) (rb, db) ->
         ra = rb
         && Array.length da = Array.length db
         && Array.for_all2 Value.equal da db)
       a b

let render_trace evs =
  let n = List.length evs in
  let keep = 16 in
  if n <= keep then List.map Semantics.event_to_string evs
  else
    List.map Semantics.event_to_string (List.filteri (fun i _ -> i < keep) evs)
    @ [ Format.sprintf "... (%d more events)" (n - keep) ]

(* First index at which the two traces differ, if any. *)
let trace_divergence to_ tt =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
        if Semantics.event_equal x y then go (i + 1) a' b'
        else
          Some
            (i,
             Format.sprintf "trace index %d: %s vs %s" i
               (Semantics.event_to_string x)
               (Semantics.event_to_string y))
    | x :: _, [] ->
        Some
          (i,
           Format.sprintf
             "trace index %d: original observes %s, transformed trace ends" i
             (Semantics.event_to_string x))
    | [], y :: _ ->
        Some
          (i,
           Format.sprintf
             "trace index %d: transformed observes %s, original trace ends" i
             (Semantics.event_to_string y))
  in
  go 0 to_ tt

let result_to_string = function
  | Semantics.Returned None -> "returned"
  | Semantics.Returned (Some v) -> "returned " ^ Value.to_string v
  | Semantics.Trapped m -> "trapped: " ^ m
  | Semantics.Out_of_fuel -> "ran out of fuel"

(* Independent confirmation: replay both programs on the execution core,
   which shares no code with Semantics, and compare return value and
   final memory.  Divergence of the original itself (trap) means the
   input is outside the refinement contract — not a confirmation. *)
let ref_confirms ~original ~transformed inputs =
  let module Interp = Asipfb_sim.Interp in
  let run p =
    match Interp.run ~fuel:8_000_000 ~inputs p with
    | (o : Interp.outcome) -> Ok (o.return_value, dump_memory o.memory)
    | exception Interp.Runtime_error _ -> Error ()
    | exception Interp.Fuel_exhausted _ -> Error ()
  in
  match (run original, run transformed) with
  | Ok (ro, mo), Ok (rt, mt) ->
      not (Option.equal Value.equal ro rt) || not (memories_equal mo mt)
  | Ok _, Error () -> true
  | Error (), _ -> false

let find_counterexample ~attempts ~original ~transformed =
  let consider attempt =
    let inputs = sample_inputs original ~attempt in
    let oo = Semantics.run ~fuel:8_000_000 ~inputs original in
    match oo.Semantics.result with
    | Semantics.Trapped _ | Semantics.Out_of_fuel ->
        None (* original diverged or trapped: input is outside the contract *)
    | Semantics.Returned _ ->
        let ot = Semantics.run ~fuel:16_000_000 ~inputs transformed in
        let divergence =
          match trace_divergence oo.trace ot.trace with
          | Some (_, d) -> Some d
          | None ->
              if oo.result <> ot.result then
                Some
                  (Format.sprintf "original %s, transformed %s"
                     (result_to_string oo.result)
                     (result_to_string ot.result))
              else if
                not
                  (memories_equal (dump_memory oo.memory)
                     (dump_memory ot.memory))
              then Some "final memories differ"
              else None
        in
        Option.map
          (fun d ->
            {
              cx_attempt = attempt;
              cx_inputs =
                List.map (fun (r, a) -> (r, Array.to_list a)) inputs;
              cx_divergence = d;
              cx_original_trace = render_trace oo.trace;
              cx_transformed_trace = render_trace ot.trace;
              cx_ref_confirmed = ref_confirms ~original ~transformed inputs;
            })
          divergence
  in
  let rec search best attempt =
    if attempt >= attempts then best
    else
      match consider attempt with
      | Some cx when cx.cx_ref_confirmed -> Some cx
      | Some cx ->
          search (if best = None then Some cx else best) (attempt + 1)
      | None -> search best (attempt + 1)
  in
  search None 0

(* --- whole-program check -------------------------------------------------- *)

let check ?(attempts = 8) ~(original : Prog.t) ~(transformed : Prog.t) () =
  let structural = ref [] in
  if original.regions <> transformed.regions then
    structural :=
      [ { fl_func = "<program>"; fl_block = None; fl_check = "structure";
          fl_detail = "memory region declarations differ" } ];
  let failures =
    List.concat_map
      (fun (fo : Func.t) ->
        match Prog.find_func_opt transformed fo.name with
        | None ->
            [ { fl_func = fo.name; fl_block = None; fl_check = "structure";
                fl_detail = "function missing from transformed program" } ]
        | Some ft -> check_func ~original:fo ~transformed:ft)
      original.funcs
  in
  match !structural @ failures with
  | [] -> Refines
  | failures ->
      let counterexample =
        if attempts <= 0 then None
        else find_counterexample ~attempts ~original ~transformed
      in
      Fails { failures; counterexample }

(* --- diagnostics ---------------------------------------------------------- *)

let to_diags ?(context = []) = function
  | Refines -> []
  | Fails { failures; counterexample } ->
      let fdiags =
        List.map
          (fun f ->
            Diag.errorf ~stage:Diag.Verification
              ~context:
                ([ ("check", "refinement");
                   ("function", f.fl_func);
                   ("obligation", f.fl_check) ]
                @ (match f.fl_block with
                  | Some b -> [ ("block", string_of_int b) ]
                  | None -> [])
                @ context)
              "refinement obligation failed: %s" (failure_to_string f))
          failures
      in
      let cdiag =
        Option.map
          (fun cx ->
            let inputs =
              String.concat "; "
                (List.map
                   (fun (r, vs) ->
                     Format.sprintf "%s=[%s]" r
                       (String.concat ","
                          (List.map Value.to_string vs)))
                   cx.cx_inputs)
            in
            Diag.errorf ~stage:Diag.Verification
              ~context:
                ([ ("check", "counterexample");
                   ("ref-confirmed", string_of_bool cx.cx_ref_confirmed);
                   ("attempt", string_of_int cx.cx_attempt);
                   ("inputs", inputs);
                   ("original-trace",
                    String.concat " | " cx.cx_original_trace);
                   ("transformed-trace",
                    String.concat " | " cx.cx_transformed_trace) ]
                @ context)
              "refinement counterexample: %s" cx.cx_divergence)
          counterexample
      in
      fdiags @ Option.to_list cdiag

let _ = sym_to_string
let _ = event_to_string
