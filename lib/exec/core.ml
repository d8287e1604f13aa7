module Types = Asipfb_ir.Types

exception Out_of_fuel of { executed : int; fuel : int }
exception Watchdog_abort of { executed : int }

(* How many slots run between watchdog polls.  The poll piggybacks on the
   fuel counter, so a run without a watchdog pays nothing. *)
let watchdog_interval = 8192

type outcome = {
  return_value : Value.t option;
  memory : Memory.t;
  counts : int array;
  cycles : int;
  ops : int;
  fused : int;
}

let profile_of_counts (c : Code.t) counts =
  let p = Profile.create () in
  Array.iteri
    (fun i n -> if n > 0 then Profile.add p ~opid:c.Code.prof_opids.(i) ~count:n)
    counts;
  p

open Code

(* A call frame.  Every register owns an unboxed int cell, an unboxed
   float cell and a tag naming which of the two holds its value (or that
   it holds none yet), so an int or float result is written without
   allocating a box or paying the write barrier.  [next] is the slot the
   function continues at once the current slot is done; a return sets it
   to -1 and leaves the value in [ret]. *)
type frame = {
  ints : int array;
  floats : float array;
  tags : Bytes.t;
  mutable next : int;
  mutable ret : Value.t option;
}

let undef = '\000'
let tint = '\001'
let tfloat = '\002'

(* Register slots come from [Code.compile], which sizes the frame to
   cover every one of them; each fast path below indexes [ints]/[floats]
   with a bounds check before trusting an unchecked tag access.

   Every helper a fast closure calls is [@inline].  The library is built
   without flambda, where a float passed to or returned from a call that
   is not inlined gets boxed — a minor-heap allocation on every step. *)
let[@inline] is_int fr s = Bytes.unsafe_get fr.tags s = tint
let[@inline] is_float fr s = Bytes.unsafe_get fr.tags s = tfloat

let[@inline] set_int fr d n =
  fr.ints.(d) <- n;
  Bytes.unsafe_set fr.tags d tint

let[@inline] set_float fr d x =
  fr.floats.(d) <- x;
  Bytes.unsafe_set fr.tags d tfloat

let set fr d = function
  | Value.Vint n -> set_int fr d n
  | Value.Vfloat x -> set_float fr d x

let read (f : cfunc) fr s =
  match Bytes.get fr.tags s with
  | '\001' -> Value.Vint fr.ints.(s)
  | '\002' -> Value.Vfloat fr.floats.(s)
  | _ -> Ops.err "read of uninitialized register %s" f.reg_names.(s)

let value f fr = function Oreg s -> read f fr s | Oconst v -> v
let[@inline] bump counts p = counts.(p) <- counts.(p) + 1

(* A slot run ends at a slot that may leave the straight line: a jump, a
   branch, a return, or a call — the callee spends fuel of its own, so a
   call must be the last slot charged before it runs. *)
let ends_run =
  let is_call (o : op) = match o.body with Ocall _ -> true | _ -> false in
  function
  | Single o -> (
      match o.body with
      | Ojump _ | Ocond_jump _ | Oret _ | Oret_void | Ocall _ -> true
      | _ -> false)
  | Fused members -> Array.exists is_call members

(* [run_end.(pc)]: the last slot of the straight run starting at [pc]. *)
let run_ends code =
  let n = Array.length code in
  let e = Array.make n (n - 1) in
  for pc = n - 2 downto 0 do
    if not (ends_run code.(pc)) then e.(pc) <- e.(pc + 1) else e.(pc) <- pc
  done;
  e

(* The arithmetic of the fast paths, over unboxed operands.
   [int_ok]/[float_ok] hold when the boxed form would not trap on that
   right operand; a zero divisor or a shift out of range is left to it,
   so it raises its own message.  Each is [@inline], like the helpers
   above: the step's [match op] then runs inside the closure, on
   unboxed values. *)
let[@inline] int_ok op y =
  match op with
  | Types.Add | Types.Sub | Types.Mul | Types.And | Types.Or | Types.Xor -> true
  | Types.Div | Types.Rem -> y <> 0
  | Types.Shl | Types.Shr -> y >= 0 && y <= 62
  | Types.Fadd | Types.Fsub | Types.Fmul | Types.Fdiv -> false

let[@inline] int_binop op x y =
  match op with
  | Types.Add -> x + y
  | Types.Sub -> x - y
  | Types.Mul -> x * y
  | Types.And -> x land y
  | Types.Or -> x lor y
  | Types.Xor -> x lxor y
  | Types.Div -> x / y
  | Types.Rem -> x mod y
  | Types.Shl -> x lsl y
  | Types.Shr -> x asr y
  | Types.Fadd | Types.Fsub | Types.Fmul | Types.Fdiv -> assert false

let[@inline] float_ok op y =
  match op with
  | Types.Fadd | Types.Fsub | Types.Fmul -> true
  | Types.Fdiv -> y <> 0.0
  | _ -> false

let[@inline] float_binop op x y =
  match op with
  | Types.Fadd -> x +. y
  | Types.Fsub -> x -. y
  | Types.Fmul -> x *. y
  | Types.Fdiv -> x /. y
  | _ -> assert false

let is_float_op = function
  | Types.Fadd | Types.Fsub | Types.Fmul | Types.Fdiv -> true
  | _ -> false

let[@inline] float_unop op x =
  match op with
  | Types.Fneg -> -.x
  | Types.Sin -> sin x
  | Types.Cos -> cos x
  | Types.Fabs -> Float.abs x
  | _ -> assert false

let[@inline] float_holds rel (x : float) y =
  match rel with
  | Types.Eq -> x = y
  | Types.Ne -> x <> y
  | Types.Lt -> x < y
  | Types.Le -> x <= y
  | Types.Gt -> x > y
  | Types.Ge -> x >= y

(* The cell a store through index register [i] writes into [arr], or -1
   when [i] does not hold an int in bounds. *)
let[@inline] store_index fr arr i =
  if is_int fr i then
    let n = fr.ints.(i) in
    if n >= 0 && n < Array.length arr then n else -1
  else -1

(* The fast closure of an op on the unfaulted path, when its shape has
   one.  Each checks its operands' tags (and the guards above) and
   otherwise runs [slow] — the boxed form, whose checks then raise
   exactly what they always did.  No step allocates, except that a store
   writes a fresh [Value.t] cell. *)
let fast ~counts ~cells ~(regions : region_info array) (o : op)
    (slow : frame -> unit) : (frame -> unit) option =
  let p = o.pidx in
  match o.body with
  | Obinop (op, d, Oreg a, Oreg b) when not (is_float_op op) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a && is_int fr b && int_ok op fr.ints.(b) then
            set_int fr d (int_binop op fr.ints.(a) fr.ints.(b))
          else slow fr)
  | Obinop (op, d, Oreg a, Oconst (Value.Vint y)) when int_ok op y ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a then set_int fr d (int_binop op fr.ints.(a) y)
          else slow fr)
  | Obinop (op, d, Oconst (Value.Vint x), Oreg b) when not (is_float_op op) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr b && int_ok op fr.ints.(b) then
            set_int fr d (int_binop op x fr.ints.(b))
          else slow fr)
  | Obinop (op, d, Oreg a, Oreg b) ->
      Some
        (fun fr ->
          bump counts p;
          if is_float fr a && is_float fr b && float_ok op fr.floats.(b) then
            set_float fr d (float_binop op fr.floats.(a) fr.floats.(b))
          else slow fr)
  | Obinop (op, d, Oreg a, Oconst (Value.Vfloat y)) when float_ok op y ->
      Some
        (fun fr ->
          bump counts p;
          if is_float fr a then set_float fr d (float_binop op fr.floats.(a) y)
          else slow fr)
  | Obinop (op, d, Oconst (Value.Vfloat x), Oreg b) when is_float_op op ->
      Some
        (fun fr ->
          bump counts p;
          if is_float fr b && float_ok op fr.floats.(b) then
            set_float fr d (float_binop op x fr.floats.(b))
          else slow fr)
  | Ounop ((Types.Fneg | Types.Sin | Types.Cos | Types.Fabs) as op, d, Oreg a) ->
      Some
        (fun fr ->
          bump counts p;
          if is_float fr a then set_float fr d (float_unop op fr.floats.(a))
          else slow fr)
  | Ounop (Types.Int_to_float, d, Oreg a) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a then set_float fr d (float_of_int fr.ints.(a))
          else slow fr)
  | Ocmp_int (rel, d, Oreg a, Oreg b) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a && is_int fr b then
            set_int fr d
              (if Types.eval_relop_int rel fr.ints.(a) fr.ints.(b) then 1
               else 0)
          else slow fr)
  | Ocmp_int (rel, d, Oreg a, Oconst (Value.Vint y)) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a then
            set_int fr d (if Types.eval_relop_int rel fr.ints.(a) y then 1 else 0)
          else slow fr)
  | Ocmp_float (rel, d, Oreg a, Oconst (Value.Vfloat y)) ->
      Some
        (fun fr ->
          bump counts p;
          if is_float fr a then
            set_int fr d (if float_holds rel fr.floats.(a) y then 1 else 0)
          else slow fr)
  | Omov (d, Oreg a) ->
      Some
        (fun fr ->
          bump counts p;
          match Bytes.unsafe_get fr.tags a with
          | '\001' -> set_int fr d fr.ints.(a)
          | '\002' -> set_float fr d fr.floats.(a)
          | _ -> slow fr)
  | Omov (d, Oconst (Value.Vint n)) ->
      Some
        (fun fr ->
          bump counts p;
          set_int fr d n)
  | Omov (d, Oconst (Value.Vfloat x)) ->
      Some
        (fun fr ->
          bump counts p;
          set_float fr d x)
  | Oload (d, rid, Oreg i) ->
      let arr = cells.(rid) in
      Some
        (fun fr ->
          bump counts p;
          if is_int fr i then begin
            let i = fr.ints.(i) in
            if i >= 0 && i < Array.length arr then
              match Array.unsafe_get arr i with
              | Value.Vint n -> set_int fr d n
              | Value.Vfloat x -> set_float fr d x
            else slow fr
          end
          else slow fr)
  (* A store checks its index, then that the value's tag is the region's
     type, before it writes anything; an immediate of the wrong type is
     left to the boxed form. *)
  | Ostore (rid, Oreg i, v) -> (
      let arr = cells.(rid) in
      match (regions.(rid).rty, v) with
      | Types.Int, Oreg v ->
          Some
            (fun fr ->
              bump counts p;
              let n = store_index fr arr i in
              if n >= 0 && is_int fr v then
                Array.unsafe_set arr n (Value.Vint fr.ints.(v))
              else slow fr)
      | Types.Float, Oreg v ->
          Some
            (fun fr ->
              bump counts p;
              let n = store_index fr arr i in
              if n >= 0 && is_float fr v then
                Array.unsafe_set arr n (Value.Vfloat fr.floats.(v))
              else slow fr)
      | rty, Oconst c when Value.ty c = rty ->
          Some
            (fun fr ->
              bump counts p;
              let n = store_index fr arr i in
              if n >= 0 then Array.unsafe_set arr n c else slow fr)
      | _ -> None)
  | Ojump target ->
      Some
        (fun fr ->
          bump counts p;
          fr.next <- target)
  | Ocond_jump (Oreg a, target) ->
      Some
        (fun fr ->
          bump counts p;
          if is_int fr a then (if fr.ints.(a) <> 0 then fr.next <- target)
          else slow fr)
  | _ -> None

let run ?(fuel = 50_000_000) ?(inputs = []) ?faults ?watchdog (c : Code.t) :
    outcome =
  let memory = Memory.of_regions c.prog_regions in
  List.iter (fun (region, data) -> Memory.seed memory region data) inputs;
  (* The flat region table aliases the cell arrays inside [memory], so
     the final Memory.t reflects every store without a copy-out. *)
  let cells =
    Array.map (fun (r : region_info) -> snd (Memory.cells memory r.rname))
      c.regions
  in
  let counts = Array.make (Array.length c.prof_opids) 0 in
  let executed () = Array.fold_left ( + ) 0 counts in
  let fuel_left = ref fuel in
  (* Next fuel_left value at which the watchdog is polled; [min_int]
     means never. *)
  let wd_at =
    ref (match watchdog with Some _ -> fuel - watchdog_interval | None -> min_int)
  in
  (* A straight run of [len] slots is charged in one step when
     [fuel_left - len >= limit]: then no slot of it would have found the
     fuel exhausted or reached a poll, so per-slot stepping would have
     done exactly the same (DESIGN §11.2). *)
  let limit = ref (max 0 !wd_at) in
  let fused = ref 0 in
  (* Every register write goes through [write]; only the faulted run
     draws from the injector there (and on loads, below). *)
  let write =
    match faults with
    | None -> set
    | Some fl -> fun fr d v -> set fr d (Fault.on_reg_write fl v)
  in
  let compiled = Array.make (Array.length c.funcs) None in
  let rec call fi (args : Value.t list) : Value.t option =
    let f = c.funcs.(fi) in
    let slots, run_end =
      match compiled.(fi) with
      | Some cf -> cf
      | None ->
          let cf = (Array.map (slot f) f.code, run_ends f.code) in
          compiled.(fi) <- Some cf;
          cf
    in
    let fr =
      {
        ints = Array.make f.nregs 0;
        floats = Array.make f.nregs 0.0;
        tags = Bytes.make f.nregs undef;
        next = 0;
        ret = None;
      }
    in
    (let np = Array.length f.fparams in
     let rec bind i = function
       | [] -> if i <> np then Ops.err "arity mismatch calling %s" f.fname
       | a :: rest ->
           if i >= np then Ops.err "arity mismatch calling %s" f.fname;
           write fr f.fparams.(i) a;
           bind (i + 1) rest
     in
     bind 0 args);
    let ncode = Array.length slots in
    let rec go pc =
      if pc >= ncode then Ops.err "fell off the end of %s" f.fname
      else begin
        let stop = run_end.(pc) in
        let len = stop - pc + 1 in
        if !fuel_left - len >= !limit then begin
          fuel_left := !fuel_left - len;
          fr.next <- stop + 1;
          for i = pc to stop do
            slots.(i) fr
          done
        end
        else begin
          if !fuel_left <= 0 then
            raise (Out_of_fuel { executed = executed (); fuel });
          if !fuel_left <= !wd_at then begin
            (match watchdog with
            | Some expired when expired () ->
                raise (Watchdog_abort { executed = executed () })
            | _ -> ());
            wd_at := !fuel_left - watchdog_interval;
            limit := max 0 !wd_at
          end;
          decr fuel_left;
          fr.next <- pc + 1;
          slots.(pc) fr
        end;
        if fr.next >= 0 then go fr.next
      end
    in
    go 0;
    fr.ret
  (* A slot's closure, built once per run: a single op, or a fused group
     whose members run in order within the one slot. *)
  and slot f = function
    | Single o -> op f o
    | Fused members ->
        let ms = Array.map (member f) members in
        fun fr ->
          incr fused;
          for i = 0 to Array.length ms - 1 do
            ms.(i) fr
          done
  (* [Code.compile] turns control flow inside a fused group into
     [Otrap]/[Ocond_trap]; any other control op there is a malformed
     form. *)
  and member f (o : op) =
    match o.body with
    | Ojump _ | Ocond_jump _ | Oret _ | Oret_void ->
        let p = o.pidx in
        fun _ ->
          bump counts p;
          assert false
    | _ -> op f o
  and op f (o : op) =
    let slow = boxed f o.body in
    let fast =
      match faults with
      | None -> fast ~counts ~cells ~regions:c.regions o slow
      | Some _ -> None
    in
    match fast with
    | Some k -> k
    | None ->
        let p = o.pidx in
        fun fr ->
          bump counts p;
          slow fr
  (* The boxed form of an op: the [Value.t] expressions of the reference
     semantics, over the tagged frame.  Fast paths fall back to it, so
     every trap message and the order operands are checked in come from
     here alone. *)
  and boxed f (k : okind) : frame -> unit =
    let value = value f in
    match k with
    | Obinop (op, d, a, b) ->
        fun fr -> write fr d (Ops.eval_binop op (value fr a) (value fr b))
    | Ounop (op, d, a) -> fun fr -> write fr d (Ops.eval_unop op (value fr a))
    | Ocmp_int (rel, d, a, b) ->
        fun fr ->
          let holds =
            Types.eval_relop_int rel
              (Ops.as_int (value fr a))
              (Ops.as_int (value fr b))
          in
          write fr d (Value.Vint (if holds then 1 else 0))
    | Ocmp_float (rel, d, a, b) ->
        fun fr ->
          let holds =
            Types.eval_relop_float rel
              (Ops.as_float (value fr a))
              (Ops.as_float (value fr b))
          in
          write fr d (Value.Vint (if holds then 1 else 0))
    | Omov (d, a) -> fun fr -> write fr d (value fr a)
    | Oload (d, rid, index) -> (
        let load fr =
          let i = Ops.as_int (value fr index) in
          let arr = cells.(rid) in
          if i < 0 || i >= Array.length arr then
            Ops.err "load out of bounds: %s[%d]" c.regions.(rid).rname i;
          arr.(i)
        in
        match faults with
        | None -> fun fr -> write fr d (load fr)
        | Some fl -> fun fr -> write fr d (Fault.on_mem_load fl (load fr)))
    | Ostore (rid, index, value_op) ->
        fun fr ->
          let i = Ops.as_int (value fr index) in
          let v = value fr value_op in
          let arr = cells.(rid) in
          if i < 0 || i >= Array.length arr then
            Ops.err "store out of bounds: %s[%d]" c.regions.(rid).rname i;
          if Value.ty v <> c.regions.(rid).rty then
            Ops.err "Memory.store: type mismatch in %s" c.regions.(rid).rname;
          arr.(i) <- v
    | Ocall (dst, fi, args) ->
        fun fr ->
          let n = Array.length args in
          let rec argv i =
            if i = n then []
            else
              let v = value fr args.(i) in
              v :: argv (i + 1)
          in
          let result = call fi (argv 0) in
          (match (dst, result) with
          | -1, _ -> ()
          | d, Some v -> write fr d v
          | _, None -> Ops.err "void call result used (%s)" c.funcs.(fi).fname)
    | Ojump target -> fun fr -> fr.next <- target
    | Ocond_jump (a, target) ->
        fun fr -> if Ops.as_int (value fr a) <> 0 then fr.next <- target
    | Oret v ->
        fun fr ->
          fr.ret <- Some (value fr v);
          fr.next <- -1
    | Oret_void -> fun fr -> fr.next <- -1
    | Onop -> fun _ -> ()
    | Otrap msg -> fun _ -> raise (Ops.Trap msg)
    | Ocond_trap (a, msg) ->
        fun fr -> if Ops.as_int (value fr a) <> 0 then raise (Ops.Trap msg)
    | Obad_region region -> fun _ -> invalid_arg ("Memory: unknown region " ^ region)
  in
  let return_value = call c.entry [] in
  {
    return_value;
    memory;
    counts;
    cycles = fuel - !fuel_left;
    ops = executed ();
    fused = !fused;
  }
