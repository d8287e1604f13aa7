module Types = Asipfb_ir.Types

exception Trap of string

let err fmt = Format.kasprintf (fun msg -> raise (Trap msg)) fmt

(* An operand of the wrong type is a trap of the simulated program, in
   [Value]'s wording, so every simulator reports it as it reports a zero
   divisor. *)
let as_int = function
  | Value.Vint n -> n
  | Value.Vfloat _ -> err "Value.as_int: float value"

let as_float = function
  | Value.Vfloat x -> x
  | Value.Vint _ -> err "Value.as_float: int value"

let eval_binop op a b =
  match op with
  | Types.Add -> Value.Vint (as_int a + as_int b)
  | Types.Sub -> Value.Vint (as_int a - as_int b)
  | Types.Mul -> Value.Vint (as_int a * as_int b)
  | Types.Div ->
      let d = as_int b in
      if d = 0 then err "integer division by zero"
      else Value.Vint (as_int a / d)
  | Types.Rem ->
      let d = as_int b in
      if d = 0 then err "integer remainder by zero"
      else Value.Vint (as_int a mod d)
  | Types.And -> Value.Vint (as_int a land as_int b)
  | Types.Or -> Value.Vint (as_int a lor as_int b)
  | Types.Xor -> Value.Vint (as_int a lxor as_int b)
  | Types.Shl ->
      let s = as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (as_int a lsl s)
  | Types.Shr ->
      let s = as_int b in
      if s < 0 || s > 62 then err "shift amount %d out of range" s
      else Value.Vint (as_int a asr s)
  | Types.Fadd -> Value.Vfloat (as_float a +. as_float b)
  | Types.Fsub -> Value.Vfloat (as_float a -. as_float b)
  | Types.Fmul -> Value.Vfloat (as_float a *. as_float b)
  | Types.Fdiv ->
      let d = as_float b in
      if d = 0.0 then err "float division by zero"
      else Value.Vfloat (as_float a /. d)

let eval_unop op a =
  match op with
  | Types.Neg -> Value.Vint (-as_int a)
  | Types.Not -> Value.Vint (lnot (as_int a))
  | Types.Fneg -> Value.Vfloat (-.as_float a)
  | Types.Int_to_float -> Value.Vfloat (float_of_int (as_int a))
  | Types.Float_to_int -> Value.Vint (int_of_float (as_float a))
  | Types.Sin -> Value.Vfloat (sin (as_float a))
  | Types.Cos -> Value.Vfloat (cos (as_float a))
  | Types.Sqrt ->
      let x = as_float a in
      if x < 0.0 then err "sqrt of negative %g" x else Value.Vfloat (sqrt x)
  | Types.Fabs -> Value.Vfloat (Float.abs (as_float a))
