(* Small-step TAC semantics with an observation trace.  Kept deliberately
   naive — the point of this module is to be an obviously correct
   reference for the simulator and the refinement checker, not to be
   fast.  It shares no code with the execution core: the arithmetic below
   is its own, and so is every trap message (worded like the core's, which
   a differential test checks). *)

module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Label = Asipfb_ir.Label
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Fault = Asipfb_exec.Fault

type event =
  | Store of { region : string; index : int; value : Value.t }
  | Call of { callee : string; args : Value.t list }
  | Return of Value.t option
  | Trap of { message : string }

let pp_event ppf = function
  | Store { region; index; value } ->
      Format.fprintf ppf "store %s[%d] = %a" region index Value.pp value
  | Call { callee; args } ->
      Format.fprintf ppf "call %s(%a)" callee
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        args
  | Return None -> Format.fprintf ppf "return"
  | Return (Some v) -> Format.fprintf ppf "return %a" Value.pp v
  | Trap { message } -> Format.fprintf ppf "trap: %s" message

let event_to_string e = Format.asprintf "%a" pp_event e

let event_equal a b =
  match (a, b) with
  | Store x, Store y ->
      x.region = y.region && x.index = y.index && Value.equal x.value y.value
  | Call x, Call y ->
      x.callee = y.callee
      && List.length x.args = List.length y.args
      && List.for_all2 Value.equal x.args y.args
  | Return None, Return None -> true
  | Return (Some x), Return (Some y) -> Value.equal x y
  | Trap x, Trap y -> x.message = y.message
  | _ -> false

type result =
  | Returned of Value.t option
  | Trapped of string
  | Out_of_fuel

type outcome = {
  trace : event list;
  result : result;
  memory : Memory.t;
  profile : Profile.t;
  instrs_executed : int;
}

exception Step_trap of string

let trap fmt = Format.kasprintf (fun m -> raise (Step_trap m)) fmt

(* --- arithmetic ---------------------------------------------------------- *)

(* Type confusion surfaces as Value.as_int/as_float's Invalid_argument,
   which [run] turns into a trap like every other error mode. *)
let eval_binop op a b =
  match op with
  | Types.Add -> Value.Vint (Value.as_int a + Value.as_int b)
  | Types.Sub -> Value.Vint (Value.as_int a - Value.as_int b)
  | Types.Mul -> Value.Vint (Value.as_int a * Value.as_int b)
  | Types.Div ->
      let d = Value.as_int b in
      if d = 0 then trap "integer division by zero"
      else Value.Vint (Value.as_int a / d)
  | Types.Rem ->
      let d = Value.as_int b in
      if d = 0 then trap "integer remainder by zero"
      else Value.Vint (Value.as_int a mod d)
  | Types.And -> Value.Vint (Value.as_int a land Value.as_int b)
  | Types.Or -> Value.Vint (Value.as_int a lor Value.as_int b)
  | Types.Xor -> Value.Vint (Value.as_int a lxor Value.as_int b)
  | Types.Shl ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then trap "shift amount %d out of range" s
      else Value.Vint (Value.as_int a lsl s)
  | Types.Shr ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then trap "shift amount %d out of range" s
      else Value.Vint (Value.as_int a asr s)
  | Types.Fadd -> Value.Vfloat (Value.as_float a +. Value.as_float b)
  | Types.Fsub -> Value.Vfloat (Value.as_float a -. Value.as_float b)
  | Types.Fmul -> Value.Vfloat (Value.as_float a *. Value.as_float b)
  | Types.Fdiv ->
      let d = Value.as_float b in
      if d = 0.0 then trap "float division by zero"
      else Value.Vfloat (Value.as_float a /. d)

let eval_unop op a =
  match op with
  | Types.Neg -> Value.Vint (-Value.as_int a)
  | Types.Not -> Value.Vint (lnot (Value.as_int a))
  | Types.Fneg -> Value.Vfloat (-.Value.as_float a)
  | Types.Int_to_float -> Value.Vfloat (float_of_int (Value.as_int a))
  | Types.Float_to_int -> Value.Vint (int_of_float (Value.as_float a))
  | Types.Sin -> Value.Vfloat (sin (Value.as_float a))
  | Types.Cos -> Value.Vfloat (cos (Value.as_float a))
  | Types.Sqrt ->
      let x = Value.as_float a in
      if x < 0.0 then trap "sqrt of negative %g" x else Value.Vfloat (sqrt x)
  | Types.Fabs -> Value.Vfloat (Float.abs (Value.as_float a))

(* --- configurations ------------------------------------------------------ *)

module Imap = Map.Make (Int)

type frame = {
  func : Func.t;
  code : Instr.t array;
  labels : int Imap.t;  (* label id → instruction index *)
  pc : int;
  regs : Value.t Imap.t;  (* register id → value *)
  ret_to : Reg.t option;  (* caller register awaiting our return value *)
}

let frame_of_func ?ret_to (f : Func.t) =
  let code = Array.of_list f.body in
  let labels =
    snd
      (Array.fold_left
         (fun (i, m) instr ->
           match Instr.kind instr with
           | Instr.Label_mark l -> (i + 1, Imap.add (Label.id l) i m)
           | _ -> (i + 1, m))
         (0, Imap.empty) code)
  in
  { func = f; code; labels; pc = 0; regs = Imap.empty; ret_to }

let operand fr = function
  | Instr.Imm_int k -> Value.Vint k
  | Instr.Imm_float f -> Value.Vfloat f
  | Instr.Reg r -> (
      match Imap.find_opt r.Reg.id fr.regs with
      | Some v -> v
      | None -> trap "read of uninitialized register %s" (Reg.to_string r))

let label_pc fr l =
  match Imap.find_opt (Label.id l) fr.labels with
  | Some i -> i
  | None -> trap "jump to unknown label %s" (Label.to_string l)

(* What one step leads to: the next call stack (innermost frame, then its
   callers), or a terminal state. *)
type status =
  | Running of frame * frame list
  | Finished of Value.t option
  | Fuel_spent

let run ?(fuel = 50_000_000) ?(inputs = []) ?faults (p : Prog.t) =
  let entry =
    match Prog.find_func_opt p p.entry with
    | Some f -> f
    | None -> invalid_arg ("Semantics.run: unknown entry " ^ p.entry)
  in
  let memory = Memory.create p in
  List.iter (fun (region, data) -> Memory.seed memory region data) inputs;
  let fuel =
    match faults with Some f -> Fault.clamp_fuel f fuel | None -> fuel
  in
  let profile = Profile.create () in
  let trace_rev = ref [] and executed = ref 0 in
  let emit ev = trace_rev := ev :: !trace_rev in
  (* Every register write — results, loads, parameters, call results —
     passes the fault injector exactly once, in execution order. *)
  let set fr (d : Reg.t) v =
    let v = match faults with Some f -> Fault.on_reg_write f v | None -> v in
    { fr with regs = Imap.add d.id v fr.regs }
  in
  let step fr outer =
    if fr.pc >= Array.length fr.code then
      trap "fell off the end of %s" fr.func.name
    else
      let i = fr.code.(fr.pc) in
      let next = { fr with pc = fr.pc + 1 } in
      let continue fr' = Running (fr', outer) in
      if Instr.is_label i then continue next
      else if !executed >= fuel then Fuel_spent
      else begin
        incr executed;
        Profile.bump profile ~opid:(Instr.opid i);
        match Instr.kind i with
        | Instr.Label_mark _ -> assert false (* skipped above *)
        | Instr.Binop (op, d, a, b) ->
            continue (set next d (eval_binop op (operand fr a) (operand fr b)))
        | Instr.Unop (op, d, a) ->
            continue (set next d (eval_unop op (operand fr a)))
        | Instr.Cmp (ty, rel, d, a, b) ->
            let holds =
              match ty with
              | Types.Int ->
                  Types.eval_relop_int rel
                    (Value.as_int (operand fr a))
                    (Value.as_int (operand fr b))
              | Types.Float ->
                  Types.eval_relop_float rel
                    (Value.as_float (operand fr a))
                    (Value.as_float (operand fr b))
            in
            continue (set next d (Value.Vint (if holds then 1 else 0)))
        | Instr.Mov (d, a) -> continue (set next d (operand fr a))
        | Instr.Load (_, d, region, idx) -> (
            match Memory.load memory region (Value.as_int (operand fr idx)) with
            | v ->
                let v =
                  match faults with
                  | Some f -> Fault.on_mem_load f v
                  | None -> v
                in
                continue (set next d v)
            | exception Memory.Bounds (r, i) ->
                trap "load out of bounds: %s[%d]" r i)
        | Instr.Store (_, region, idx, value) -> (
            let index = Value.as_int (operand fr idx) in
            let value = operand fr value in
            match Memory.store memory region index value with
            | () ->
                emit (Store { region; index; value });
                continue next
            | exception Memory.Bounds (r, i) ->
                trap "store out of bounds: %s[%d]" r i)
        | Instr.Jump l -> continue { next with pc = label_pc fr l }
        | Instr.Cond_jump (cond, l) ->
            if Value.as_int (operand fr cond) <> 0 then
              continue { next with pc = label_pc fr l }
            else continue next
        | Instr.Call (dst, callee, args) -> (
            match Prog.find_func_opt p callee with
            | None -> trap "call to unknown function %s" callee
            | Some f ->
                let argv = List.map (operand fr) args in
                if List.length f.params <> List.length argv then
                  trap "arity mismatch calling %s" callee
                else
                  let callee_fr =
                    List.fold_left2 set (frame_of_func ?ret_to:dst f) f.params
                      argv
                  in
                  emit (Call { callee; args = argv });
                  Running (callee_fr, next :: outer))
        | Instr.Ret v -> (
            let value = Option.map (operand fr) v in
            emit (Return value);
            match (outer, fr.ret_to, value) with
            | [], _, _ -> Finished value
            | caller :: rest, None, _ -> Running (caller, rest)
            | caller :: rest, Some d, Some v -> Running (set caller d v, rest)
            | _ :: _, Some _, None ->
                trap "void call result used (%s)" fr.func.name)
      end
  in
  let rec go fr outer =
    match step fr outer with
    | Running (fr, outer) -> go fr outer
    | Finished v -> Returned v
    | Fuel_spent -> Out_of_fuel
  in
  let result =
    match go (frame_of_func entry) [] with
    | result -> result
    | exception (Step_trap m | Invalid_argument m) ->
        emit (Trap { message = m });
        Trapped m
  in
  {
    trace = List.rev !trace_rev;
    result;
    memory;
    profile;
    instrs_executed = !executed;
  }
