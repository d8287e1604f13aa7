module Types = Asipfb_ir.Types
module Reg = Asipfb_ir.Reg
module Label = Asipfb_ir.Label
module Instr = Asipfb_ir.Instr
module Func = Asipfb_ir.Func
module Prog = Asipfb_ir.Prog

(* Part of the engine's cache keys: bump on any change to the compilation
   scheme or execution semantics so stale simulated outcomes stop
   matching. *)
let version = "exec-core-1"

type operand = Oreg of int | Oconst of Value.t

type okind =
  | Obinop of Types.binop * int * operand * operand
  | Ounop of Types.unop * int * operand
  | Ocmp_int of Types.relop * int * operand * operand
  | Ocmp_float of Types.relop * int * operand * operand
  | Omov of int * operand
  | Oload of int * int * operand
  | Ostore of int * operand * operand
  | Ojump of int
  | Ocond_jump of operand * int
  | Ocond_trap of operand * string
  | Ocall of int * int * operand array
  | Oret of operand
  | Oret_void
  | Onop
  | Otrap of string
  | Obad_region of string

type op = { pidx : int; orig : Instr.t; body : okind }
type slot = Single of op | Fused of op array

type cfunc = {
  fname : string;
  fparams : int array;
  nregs : int;
  reg_names : string array;
  code : slot array;
}

type region_info = { rname : string; rty : Types.ty; rsize : int }

type t = {
  funcs : cfunc array;
  entry : int;
  regions : region_info array;
  prog_regions : Prog.region list;
  prof_opids : int array;
}

type src_item = Ione of Instr.t | Igroup of Instr.t list

type src_func = {
  src_name : string;
  src_params : Reg.t list;
  src_body : src_item list;
}

let compile ~(funcs : src_func list) ~(regions : Prog.region list) ~entry : t =
  let region_arr = Array.of_list regions in
  (* Last declaration wins on a duplicate name, matching Memory.of_regions
     (Hashtbl.replace). *)
  let region_ids = Hashtbl.create 8 in
  Array.iteri
    (fun i (r : Prog.region) -> Hashtbl.replace region_ids r.region_name i)
    region_arr;
  let func_arr = Array.of_list funcs in
  let func_ids = Hashtbl.create 8 in
  Array.iteri (fun i f -> Hashtbl.replace func_ids f.src_name i) func_arr;
  (* Dense profile slots: one counter per distinct opid across the whole
     program (schedule copies share their origin's opid and therefore its
     counter, exactly like the hashtable profile they replace). *)
  let prof_ids = Hashtbl.create 64 in
  let prof_opids_rev = ref [] in
  let nprof = ref 0 in
  let pidx_of opid =
    match Hashtbl.find_opt prof_ids opid with
    | Some i -> i
    | None ->
        let i = !nprof in
        Hashtbl.add prof_ids opid i;
        incr nprof;
        prof_opids_rev := opid :: !prof_opids_rev;
        i
  in
  let compile_func (f : src_func) : cfunc =
    (* Frame layout: registers renumbered densely in order of first
       appearance, parameters first. *)
    let reg_slots = Hashtbl.create 32 in
    let reg_names_rev = ref [] in
    let nregs = ref 0 in
    let slot_of (r : Reg.t) =
      let id = Reg.id r in
      match Hashtbl.find_opt reg_slots id with
      | Some s -> s
      | None ->
          let s = !nregs in
          Hashtbl.add reg_slots id s;
          incr nregs;
          reg_names_rev := Reg.to_string r :: !reg_names_rev;
          s
    in
    let fparams = Array.of_list (List.map slot_of f.src_params) in
    (* First pass: label id -> slot index of the next executable slot.
       Labels occupy no slot; only top-level (non-fused) marks resolve,
       like the interpreters this replaces. *)
    let label_pos = Hashtbl.create 8 in
    let nslots = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Ione i when Instr.is_label i -> (
            match Instr.kind i with
            | Instr.Label_mark l -> Hashtbl.replace label_pos (Label.id l) !nslots
            | _ -> assert false)
        | Ione _ | Igroup _ -> incr nslots)
      f.src_body;
    let comp_operand = function
      | Instr.Reg r -> Oreg (slot_of r)
      | Instr.Imm_int n -> Oconst (Value.Vint n)
      | Instr.Imm_float x -> Oconst (Value.Vfloat x)
    in
    (* Unresolvable references compile to trapping ops rather than
       compile-time errors: the pre-compiled program fails exactly when
       (and only when) the broken instruction executes, like the
       reference semantics (Verify.Semantics). *)
    let comp_kind (i : Instr.t) : okind =
      match Instr.kind i with
      | Instr.Binop (op, d, a, b) ->
          Obinop (op, slot_of d, comp_operand a, comp_operand b)
      | Instr.Unop (op, d, a) -> Ounop (op, slot_of d, comp_operand a)
      | Instr.Cmp (Types.Int, rel, d, a, b) ->
          Ocmp_int (rel, slot_of d, comp_operand a, comp_operand b)
      | Instr.Cmp (Types.Float, rel, d, a, b) ->
          Ocmp_float (rel, slot_of d, comp_operand a, comp_operand b)
      | Instr.Mov (d, a) -> Omov (slot_of d, comp_operand a)
      | Instr.Load (_, d, region, index) -> (
          match Hashtbl.find_opt region_ids region with
          | Some rid -> Oload (slot_of d, rid, comp_operand index)
          | None -> Obad_region region)
      | Instr.Store (_, region, index, value) -> (
          match Hashtbl.find_opt region_ids region with
          | Some rid -> Ostore (rid, comp_operand index, comp_operand value)
          | None -> Obad_region region)
      | Instr.Jump l -> (
          match Hashtbl.find_opt label_pos (Label.id l) with
          | Some idx -> Ojump idx
          | None -> Otrap ("jump to unknown label " ^ Label.to_string l))
      | Instr.Cond_jump (a, l) -> (
          match Hashtbl.find_opt label_pos (Label.id l) with
          | Some idx -> Ocond_jump (comp_operand a, idx)
          | None ->
              Ocond_trap
                (comp_operand a, "jump to unknown label " ^ Label.to_string l))
      | Instr.Call (dst, name, args) -> (
          match Hashtbl.find_opt func_ids name with
          | Some fi ->
              Ocall
                ( (match dst with Some d -> slot_of d | None -> -1),
                  fi,
                  Array.of_list (List.map comp_operand args) )
          | None -> Otrap ("call to unknown function " ^ name))
      | Instr.Ret (Some v) -> Oret (comp_operand v)
      | Instr.Ret None -> Oret_void
      | Instr.Label_mark _ -> Onop
    in
    let comp_op ~fused (i : Instr.t) : op =
      let body =
        match Instr.kind i with
        (* A conditional branch inside a chain only errs when taken (a
           not-taken one falls through harmlessly), matching the
           tree-walking target simulator this replaces. *)
        | Instr.Cond_jump (a, _) when fused ->
            Ocond_trap (comp_operand a, "control flow inside chained instruction")
        | (Instr.Jump _ | Instr.Ret _) when fused ->
            Otrap "control flow inside chained instruction"
        | _ -> comp_kind i
      in
      { pidx = pidx_of (Instr.opid i); orig = i; body }
    in
    let code =
      List.filter_map
        (fun item ->
          match item with
          | Ione i when Instr.is_label i -> None
          | Ione i -> Some (Single (comp_op ~fused:false i))
          | Igroup members ->
              Some
                (Fused
                   (Array.of_list (List.map (comp_op ~fused:true) members))))
        f.src_body
    in
    {
      fname = f.src_name;
      fparams;
      nregs = !nregs;
      reg_names = Array.of_list (List.rev !reg_names_rev);
      code = Array.of_list code;
    }
  in
  let cfuncs = Array.map compile_func func_arr in
  let entry_idx =
    match Hashtbl.find_opt func_ids entry with
    | Some i -> i
    | None -> Ops.err "call to unknown function %s" entry
  in
  {
    funcs = cfuncs;
    entry = entry_idx;
    regions =
      Array.map
        (fun (r : Prog.region) ->
          { rname = r.region_name; rty = r.elt_ty; rsize = r.size })
        region_arr;
    prog_regions = regions;
    prof_opids = Array.of_list (List.rev !prof_opids_rev);
  }

let of_prog (p : Prog.t) : t =
  compile
    ~funcs:
      (List.map
         (fun (f : Func.t) ->
           {
             src_name = f.name;
             src_params = f.params;
             src_body = List.map (fun i -> Ione i) f.body;
           })
         p.funcs)
    ~regions:p.regions ~entry:p.entry

let slot_count (c : t) =
  Array.fold_left (fun acc f -> acc + Array.length f.code) 0 c.funcs
