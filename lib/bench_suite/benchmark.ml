type t = {
  name : string;
  description : string;
  data_input : string;
  source : string;
  inputs : unit -> (string * Asipfb_exec.Value.t array) list;
  output_regions : string list;
}

let compile t = Asipfb_frontend.Lower.compile t.source ~entry:"main"
let run t = Asipfb_sim.Interp.run (compile t) ~inputs:(t.inputs ())

let run_with_faults t ~faults =
  Asipfb_sim.Interp.run (compile t) ~inputs:(t.inputs ()) ~faults

(* Expected-output self-check: the clean run is deterministic (LCG inputs),
   so its output regions are the golden reference. Memoized per benchmark;
   the first self-check pays for one extra clean run.  The memo is shared
   mutable state reached from the engine's parallel fault-injected tasks,
   so reads and writes go through a mutex; the golden value itself is
   deterministic, so racing computers would agree anyway — the lock only
   protects the table structure. *)
let golden : (string, (string * Asipfb_exec.Value.t array) list) Hashtbl.t =
  Hashtbl.create 16

let golden_mutex = Mutex.create ()

let expected_outputs t =
  let memoized =
    Mutex.lock golden_mutex;
    let v = Hashtbl.find_opt golden t.name in
    Mutex.unlock golden_mutex;
    v
  in
  match memoized with
  | Some v -> v
  | None ->
      (* Compute outside the lock: a clean run is slow, and nothing here
         re-enters this module. *)
      let o = run t in
      let v =
        List.map
          (fun region -> (region, Asipfb_exec.Memory.dump o.memory region))
          t.output_regions
      in
      Mutex.lock golden_mutex;
      Hashtbl.replace golden t.name v;
      Mutex.unlock golden_mutex;
      v

let self_check t (outcome : Asipfb_sim.Interp.outcome) : (unit, string) result =
  let mismatch =
    List.find_map
      (fun (region, want) ->
        let got = Asipfb_exec.Memory.dump outcome.memory region in
        if Array.length want <> Array.length got then
          Some (Printf.sprintf "%s: length %d <> %d" region
                  (Array.length got) (Array.length want))
        else
          let bad = ref None in
          Array.iteri
            (fun i w ->
              if !bad = None && not (Asipfb_exec.Value.close w got.(i)) then
                bad :=
                  Some
                    (Printf.sprintf "%s[%d]: got %s, expected %s" region i
                       (Asipfb_exec.Value.to_string got.(i))
                       (Asipfb_exec.Value.to_string w)))
            want;
          !bad)
      (expected_outputs t)
  in
  match mismatch with
  | None -> Ok ()
  | Some msg -> Result.error ("output self-check failed: " ^ msg)

let source_lines t =
  String.split_on_char '\n' t.source
  |> List.filter (fun line -> String.trim line <> "")
  |> List.length
