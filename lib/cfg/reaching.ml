module Reg = Asipfb_ir.Reg
module Instr = Asipfb_ir.Instr

module Int_set = Set.Make (Int)

(* The fact: each register mapped to the opids of its definitions that
   may reach the point.  A register with no reaching definition is
   absent, so the empty map is the bottom. *)
type fact = Int_set.t Reg.Map.t

type t = {
  instrs : Instr.t array array;  (* block -> its instructions *)
  reach_in : fact array;
  reach_out : fact array;
  (* block -> the fact before each position 0..n (entry n is reach_out),
     filled by one forward sweep on the block's first query.  Two domains
     racing to fill a slot compute the same table, so the race is
     benign. *)
  before : fact array option array;
}

(* Transfer through one instruction: a definition replaces every other
   reaching definition of its register. *)
let transfer fact i =
  match Instr.def i with
  | None -> fact
  | Some d -> Reg.Map.add d (Int_set.singleton (Instr.opid i)) fact

let union =
  Reg.Map.union (fun _ a b -> Some (if a == b then a else Int_set.union a b))

let compute (cfg : Cfg.t) : t =
  let instrs =
    Array.map (fun (b : Cfg.block) -> Array.of_list b.instrs) cfg.blocks
  in
  (* A block's effect is its last definition of each register it defines,
     overriding whatever reaches its entry. *)
  let gen = Array.map (Array.fold_left transfer Reg.Map.empty) instrs in
  (* Forward/may instance of the generic solver: facts are per-register
     sets of reaching def opids, merged by union (empty above the
     entry). *)
  let module Solver = Dataflow.Make (struct
    type nonrec fact = fact

    let direction = `Forward
    let init = Reg.Map.empty
    let merge _ = List.fold_left union Reg.Map.empty

    let transfer (b : Cfg.block) inn =
      Reg.Map.union (fun _ _ g -> Some g) inn gen.(b.index)

    let equal a b =
      a == b || Reg.Map.equal (fun x y -> x == y || Int_set.equal x y) a b
  end) in
  let { Solver.input; output } = Solver.solve cfg in
  {
    instrs;
    reach_in = input;
    reach_out = output;
    before = Array.make (Array.length instrs) None;
  }

let flatten fact =
  Reg.Map.fold (fun _ s acc -> Int_set.union s acc) fact Int_set.empty
  |> Int_set.elements

let reach_in t b = flatten t.reach_in.(b)
let reach_out t b = flatten t.reach_out.(b)

let table t block =
  match t.before.(block) with
  | Some tbl -> tbl
  | None ->
      let instrs = t.instrs.(block) in
      let tbl = Array.make (Array.length instrs + 1) t.reach_in.(block) in
      Array.iteri (fun pos i -> tbl.(pos + 1) <- transfer tbl.(pos) i) instrs;
      t.before.(block) <- Some tbl;
      tbl

(* The fact before the [pos]-th instruction; positions past either end
   clamp, as a prefix of the block would. *)
let reaching_at t ~block ~pos =
  let tbl = table t block in
  tbl.(max 0 (min pos (Array.length tbl - 1)))

let defs_of fact reg =
  match Reg.Map.find_opt reg fact with
  | Some s -> Int_set.elements s
  | None -> []

let defs_reaching_use t ~block ~pos ~reg =
  defs_of (reaching_at t ~block ~pos) reg

let du_chains t =
  let uses_of_def : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun block instrs ->
      let tbl = table t block in
      Array.iteri
        (fun pos i ->
          List.iter
            (fun reg ->
              List.iter
                (fun def_opid ->
                  let existing =
                    Option.value ~default:[]
                      (Hashtbl.find_opt uses_of_def def_opid)
                  in
                  Hashtbl.replace uses_of_def def_opid
                    ((block, pos) :: existing))
                (defs_of tbl.(pos) reg))
            (Asipfb_util.Listx.dedup Reg.equal (Instr.uses i)))
        instrs)
    t.instrs;
  (* Hashtbl.fold order is unspecified; sort the assoc list by def opid
     (and each use list positionally) so every rendering of the chains —
     notably --json reports — is byte-stable across -j settings. *)
  Hashtbl.fold
    (fun def uses acc -> (def, List.sort compare uses) :: acc)
    uses_of_def []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let du_chains_opids t =
  List.map
    (fun (def, uses) ->
      let use_opids =
        List.map (fun (block, pos) -> Instr.opid t.instrs.(block).(pos)) uses
        |> List.sort_uniq Int.compare
      in
      (def, use_opids))
    (du_chains t)

let single_def_uses t =
  (* A def qualifies when, at each of its uses, it is the only reaching
     definition of the used register. *)
  let def_reg = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun i ->
         Option.iter (Hashtbl.replace def_reg (Instr.opid i)) (Instr.def i)))
    t.instrs;
  List.filter_map
    (fun (def_opid, uses) ->
      match Hashtbl.find_opt def_reg def_opid with
      | None -> None
      | Some reg ->
          let unique_everywhere =
            List.for_all
              (fun (block, pos) ->
                defs_reaching_use t ~block ~pos ~reg = [ def_opid ])
              uses
          in
          if unique_everywhere && uses <> [] then Some def_opid else None)
    (du_chains t)
