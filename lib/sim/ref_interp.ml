(* The pre-refactor tree-walking interpreter, retained verbatim as the
   executable specification of the base semantics.  Interp delegates to
   the pre-compiled execution core (Asipfb_exec.Core); this module is the
   oracle the differential tests and the throughput bench compare it
   against.  Deliberately naive: hashtable registers, hashtable profile,
   label lookup per jump. *)

module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Label = Asipfb_ir.Label
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog
module Value = Asipfb_exec.Value
module Memory = Asipfb_exec.Memory
module Profile = Asipfb_exec.Profile
module Fault = Asipfb_exec.Fault

let err fmt =
  Format.kasprintf (fun msg -> raise (Interp.Runtime_error msg)) fmt

let eval_binop op a b =
  match op with
  | Types.Add -> Value.Vint (Value.as_int a + Value.as_int b)
  | Types.Sub -> Value.Vint (Value.as_int a - Value.as_int b)
  | Types.Mul -> Value.Vint (Value.as_int a * Value.as_int b)
  | Types.Div ->
      let d = Value.as_int b in
      if d = 0 then err "integer division by zero"
      else Value.Vint (Value.as_int a / d)
  | Types.Rem ->
      let d = Value.as_int b in
      if d = 0 then err "integer remainder by zero"
      else Value.Vint (Value.as_int a mod d)
  | Types.And -> Value.Vint (Value.as_int a land Value.as_int b)
  | Types.Or -> Value.Vint (Value.as_int a lor Value.as_int b)
  | Types.Xor -> Value.Vint (Value.as_int a lxor Value.as_int b)
  | Types.Shl ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (Value.as_int a lsl s)
  | Types.Shr ->
      let s = Value.as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (Value.as_int a asr s)
  | Types.Fadd -> Value.Vfloat (Value.as_float a +. Value.as_float b)
  | Types.Fsub -> Value.Vfloat (Value.as_float a -. Value.as_float b)
  | Types.Fmul -> Value.Vfloat (Value.as_float a *. Value.as_float b)
  | Types.Fdiv ->
      let d = Value.as_float b in
      if d = 0.0 then err "float division by zero"
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
      if x < 0.0 then err "sqrt of negative %g" x else Value.Vfloat (sqrt x)
  | Types.Fabs -> Value.Vfloat (Float.abs (Value.as_float a))

(* Pre-resolved function body: instruction array plus label positions. *)
type resolved = {
  func : Func.t;
  instrs : Instr.t array;
  label_pos : (int, int) Hashtbl.t;  (* label id -> index after the mark *)
}

let resolve (f : Func.t) : resolved =
  let instrs = Array.of_list f.body in
  let label_pos = Hashtbl.create 8 in
  Array.iteri
    (fun idx i ->
      match Instr.kind i with
      | Instr.Label_mark l -> Hashtbl.replace label_pos (Label.id l) idx
      | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Mov _
      | Instr.Load _ | Instr.Store _ | Instr.Jump _ | Instr.Cond_jump _
      | Instr.Call _ | Instr.Ret _ ->
          ())
    instrs;
  { func = f; instrs; label_pos }

type state = {
  memory : Memory.t;
  profile : Profile.t;
  resolved : (string, resolved) Hashtbl.t;
  on_exec : string -> Instr.t -> unit;
  faults : Fault.t option;
  mutable fuel : int;
  mutable executed : int;
}

let get_resolved st name =
  match Hashtbl.find_opt st.resolved name with
  | Some r -> r
  | None -> err "call to unknown function %s" name

let rec run_func st (r : resolved) (args : Value.t list) : Value.t option =
  let regs : (int, Value.t) Hashtbl.t = Hashtbl.create 32 in
  let set_reg reg v =
    let v = match st.faults with Some f -> Fault.on_reg_write f v | None -> v in
    Hashtbl.replace regs (Reg.id reg) v
  in
  let get_reg reg =
    match Hashtbl.find_opt regs (Reg.id reg) with
    | Some v -> v
    | None -> err "read of uninitialized register %s" (Reg.to_string reg)
  in
  let operand = function
    | Instr.Reg reg -> get_reg reg
    | Instr.Imm_int n -> Value.Vint n
    | Instr.Imm_float x -> Value.Vfloat x
  in
  (try List.iter2 (fun p a -> set_reg p a) r.func.params args
   with Invalid_argument _ -> err "arity mismatch calling %s" r.func.name);
  let jump_to l =
    match Hashtbl.find_opt r.label_pos (Label.id l) with
    | Some idx -> idx + 1
    | None -> err "jump to unknown label %s" (Label.to_string l)
  in
  let rec step pc : Value.t option =
    if pc >= Array.length r.instrs then
      err "fell off the end of %s" r.func.name
    else begin
      let i = r.instrs.(pc) in
      if Instr.is_label i then step (pc + 1)
      else begin
        if st.fuel <= 0 then err "out of fuel (infinite loop?)";
        st.fuel <- st.fuel - 1;
        st.executed <- st.executed + 1;
        st.on_exec r.func.name i;
        Profile.bump st.profile ~opid:(Instr.opid i);
        match Instr.kind i with
        | Instr.Binop (op, d, a, b) ->
            set_reg d (eval_binop op (operand a) (operand b));
            step (pc + 1)
        | Instr.Unop (op, d, a) ->
            set_reg d (eval_unop op (operand a));
            step (pc + 1)
        | Instr.Cmp (ty, rel, d, a, b) ->
            let holds =
              match ty with
              | Types.Int ->
                  Types.eval_relop_int rel
                    (Value.as_int (operand a))
                    (Value.as_int (operand b))
              | Types.Float ->
                  Types.eval_relop_float rel
                    (Value.as_float (operand a))
                    (Value.as_float (operand b))
            in
            set_reg d (Value.Vint (if holds then 1 else 0));
            step (pc + 1)
        | Instr.Mov (d, a) ->
            set_reg d (operand a);
            step (pc + 1)
        | Instr.Load (_, d, region, index) -> (
            let idx = Value.as_int (operand index) in
            match Memory.load st.memory region idx with
            | v ->
                let v =
                  match st.faults with
                  | Some f -> Fault.on_mem_load f v
                  | None -> v
                in
                set_reg d v;
                step (pc + 1)
            | exception Memory.Bounds (name, at) ->
                err "load out of bounds: %s[%d]" name at)
        | Instr.Store (_, region, index, value) -> (
            let idx = Value.as_int (operand index) in
            match Memory.store st.memory region idx (operand value) with
            | () -> step (pc + 1)
            | exception Memory.Bounds (name, at) ->
                err "store out of bounds: %s[%d]" name at)
        | Instr.Jump l -> step (jump_to l)
        | Instr.Cond_jump (a, l) ->
            if Value.as_int (operand a) <> 0 then step (jump_to l)
            else step (pc + 1)
        | Instr.Call (dst, name, args) ->
            let callee = get_resolved st name in
            let argv = List.map operand args in
            let result = run_func st callee argv in
            (match (dst, result) with
            | Some d, Some v -> set_reg d v
            | Some _, None -> err "void call result used (%s)" name
            | None, _ -> ());
            step (pc + 1)
        | Instr.Ret v -> Option.map operand v
        | Instr.Label_mark _ -> assert false
      end
    end
  in
  step 0

let run ?(fuel = 50_000_000) ?(inputs = []) ?(on_exec = fun _ _ -> ()) ?faults
    (p : Prog.t) : Interp.outcome =
  let memory = Memory.create p in
  List.iter (fun (region, data) -> Memory.seed memory region data) inputs;
  let resolved = Hashtbl.create 8 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace resolved f.name (resolve f))
    p.funcs;
  let fuel = match faults with Some f -> Fault.clamp_fuel f fuel | None -> fuel in
  let st =
    { memory; profile = Profile.create (); resolved; on_exec; faults; fuel;
      executed = 0 }
  in
  let entry = get_resolved st p.entry in
  let return_value = run_func st entry [] in
  { return_value; profile = st.profile; memory; instrs_executed = st.executed }
