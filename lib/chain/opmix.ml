module Types = Asipfb_ir.Types
module Instr = Asipfb_ir.Instr
module Profile = Asipfb_exec.Profile

type entry = { op_class : string; dynamic_count : int; share : float }

let pseudo_class i =
  match Instr.kind i with
  | Instr.Mov _ -> "mov"
  | Instr.Unop ((Types.Int_to_float | Types.Float_to_int), _, _) -> "convert"
  | Instr.Unop ((Types.Sin | Types.Cos | Types.Sqrt | Types.Fabs), _, _) ->
      "intrinsic"
  | Instr.Call _ -> "call"
  | Instr.Jump _ | Instr.Cond_jump _ | Instr.Ret _ -> "control"
  | Instr.Label_mark _ -> "label"
  | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Load _ | Instr.Store _
    ->
      "other"

let analyze (p : Asipfb_ir.Prog.t) ~profile =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let total = Profile.total profile in
  List.iter
    (fun (f : Asipfb_ir.Func.t) ->
      List.iter
        (fun i ->
          if not (Instr.is_label i) then begin
            let cls =
              match Chainop.class_of i with
              | Some c -> c
              | None -> pseudo_class i
            in
            let count = Profile.count profile ~opid:(Instr.opid i) in
            if count > 0 then
              Hashtbl.replace counts cls
                (count + Option.value ~default:0 (Hashtbl.find_opt counts cls))
          end)
        f.body)
    p.funcs;
  Hashtbl.fold
    (fun op_class dynamic_count acc ->
      {
        op_class;
        dynamic_count;
        share =
          (if total = 0 then 0.0
           else float_of_int dynamic_count /. float_of_int total *. 100.0);
      }
      :: acc)
    counts []
  |> List.sort (fun a b -> Float.compare b.share a.share)

let share_of entries cls =
  match List.find_opt (fun e -> e.op_class = cls) entries with
  | Some e -> e.share
  | None -> 0.0
