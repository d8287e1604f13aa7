module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr

exception Out_of_fuel of { executed : int; fuel : int }
exception Watchdog_abort of { executed : int }

(* How many ops run between watchdog polls.  The poll piggybacks on the
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

module type HOOKS = sig
  type t

  val faulted : bool
  val on_reg_write : t -> Value.t -> Value.t
  val on_mem_load : t -> Value.t -> Value.t
end

module type S = sig
  type hooks

  val run :
    ?fuel:int ->
    ?inputs:(string * Value.t array) list ->
    ?watchdog:(unit -> bool) ->
    hooks:hooks ->
    Code.t ->
    outcome
end

module Make (H : HOOKS) : S with type hooks = H.t = struct
  type hooks = H.t

  open Code


  let run ?(fuel = 50_000_000) ?(inputs = []) ?watchdog ~(hooks : H.t)
      (c : Code.t) : outcome =
    let memory = Memory.of_regions c.prog_regions in
    List.iter (fun (region, data) -> Memory.seed memory region data) inputs;
    (* The flat region table aliases the cell arrays inside [memory], so
       the final Memory.t reflects every store without a copy-out. *)
    let cells =
      Array.map (fun (r : region_info) -> snd (Memory.cells memory r.rname))
        c.regions
    in
    let counts = Array.make (Array.length c.prof_opids) 0 in
    let fuel_left = ref fuel in
    (* Next fuel_left value at which the watchdog is polled; [min_int]
       means never, so the common unwatched path costs one compare. *)
    let wd_at =
      ref (match watchdog with Some _ -> fuel - watchdog_interval | None -> min_int)
    in
    let cycles = ref 0 and ops = ref 0 and fused = ref 0 in
    let rec call (f : cfunc) (args : Value.t list) : Value.t option =
      let frame = Array.make f.nregs (Value.Vint 0) in
      let defined = Array.make f.nregs false in
      let write slot v =
        let v = if H.faulted then H.on_reg_write hooks v else v in
        frame.(slot) <- v;
        defined.(slot) <- true
      in
      let read slot =
        if defined.(slot) then frame.(slot)
        else Ops.err "read of uninitialized register %s" f.reg_names.(slot)
      in
      let value = function Oreg s -> read s | Oconst v -> v in
      (let np = Array.length f.fparams in
       let rec bind i = function
         | [] -> if i <> np then Ops.err "arity mismatch calling %s" f.fname
         | a :: rest ->
             if i >= np then Ops.err "arity mismatch calling %s" f.fname;
             write f.fparams.(i) a;
             bind (i + 1) rest
       in
       bind 0 args);
      let note (o : op) =
        incr ops;
        counts.(o.pidx) <- counts.(o.pidx) + 1
      in
      (* Every op kind except control flow; shared between single slots and
         fused-group members (whose control flow compiled to [Otrap]). *)
      let exec_data (k : okind) : unit =
        match k with
        | Obinop (op, d, a, b) -> write d (Ops.eval_binop op (value a) (value b))
        | Ounop (op, d, a) -> write d (Ops.eval_unop op (value a))
        | Ocmp_int (rel, d, a, b) ->
            let holds =
              Types.eval_relop_int rel
                (Value.as_int (value a))
                (Value.as_int (value b))
            in
            write d (Value.Vint (if holds then 1 else 0))
        | Ocmp_float (rel, d, a, b) ->
            let holds =
              Types.eval_relop_float rel
                (Value.as_float (value a))
                (Value.as_float (value b))
            in
            write d (Value.Vint (if holds then 1 else 0))
        | Omov (d, a) -> write d (value a)
        | Oload (d, rid, index) ->
            let i = Value.as_int (value index) in
            let arr = cells.(rid) in
            if i < 0 || i >= Array.length arr then
              Ops.err "load out of bounds: %s[%d]" c.regions.(rid).rname i;
            let v = arr.(i) in
            let v = if H.faulted then H.on_mem_load hooks v else v in
            write d v
        | Ostore (rid, index, value_op) ->
            let i = Value.as_int (value index) in
            let v = value value_op in
            let arr = cells.(rid) in
            if i < 0 || i >= Array.length arr then
              Ops.err "store out of bounds: %s[%d]" c.regions.(rid).rname i;
            if Value.ty v <> c.regions.(rid).rty then
              invalid_arg ("Memory.store: type mismatch in " ^ c.regions.(rid).rname);
            arr.(i) <- v
        | Ocall (dst, fi, args) ->
            let n = Array.length args in
            let rec argv i =
              if i = n then []
              else
                let v = value args.(i) in
                v :: argv (i + 1)
            in
            let callee = c.funcs.(fi) in
            let result = call callee (argv 0) in
            (match (dst, result) with
            | -1, _ -> ()
            | d, Some v -> write d v
            | _, None -> Ops.err "void call result used (%s)" callee.fname)
        | Onop -> ()
        | Otrap msg -> raise (Ops.Trap msg)
        | Ocond_trap (a, msg) ->
            if Value.as_int (value a) <> 0 then raise (Ops.Trap msg)
        | Obad_region region -> invalid_arg ("Memory: unknown region " ^ region)
        | Ojump _ | Ocond_jump _ | Oret _ | Oret_void -> assert false
      in
      let ncode = Array.length f.code in
      let rec step pc : Value.t option =
        if pc >= ncode then Ops.err "fell off the end of %s" f.fname
        else begin
          if !fuel_left <= 0 then raise (Out_of_fuel { executed = !ops; fuel });
          if !fuel_left <= !wd_at then begin
            (match watchdog with
            | Some expired when expired () ->
                raise (Watchdog_abort { executed = !ops })
            | _ -> ());
            wd_at := !fuel_left - watchdog_interval
          end;
          decr fuel_left;
          incr cycles;
          match f.code.(pc) with
          | Single o -> (
              note o;
              match o.body with
              | Ojump target -> step target
              | Ocond_jump (a, target) ->
                  if Value.as_int (value a) <> 0 then step target
                  else step (pc + 1)
              | Oret v -> Some (value v)
              | Oret_void -> None
              | k ->
                  exec_data k;
                  step (pc + 1))
          | Fused members ->
              incr fused;
              Array.iter
                (fun (m : op) ->
                  note m;
                  exec_data m.body)
                members;
              step (pc + 1)
        end
      in
      step 0
    in
    let return_value = call c.funcs.(c.entry) [] in
    {
      return_value;
      memory;
      counts;
      cycles = !cycles;
      ops = !ops;
      fused = !fused;
    }
end

module Plain = Make (struct
  type t = unit

  let faulted = false
  let on_reg_write () v = v
  let on_mem_load () v = v
end)

module Faulted = Make (struct
  type t = Fault.t

  let faulted = true
  let on_reg_write f v = Fault.on_reg_write f v
  let on_mem_load f v = Fault.on_mem_load f v
end)
